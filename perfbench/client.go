package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// httpc talks to local children only; the timeout bounds a wedged job.
var httpc = &http.Client{Timeout: 120 * time.Second}

// coordJob is one job as the client saw it. Times are absolute, so they
// compare directly with the worker's own status timestamps.
type coordJob struct {
	input      int
	seq        int // submission order within the run
	submitted  time.Time
	firstBlock time.Time // first alignment block, or the end of an empty MAF
	done       time.Time
	maf        []byte
	id         string
	err        error
}

func (j *coordJob) latency() time.Duration      { return j.done.Sub(j.submitted) }
func (j *coordJob) firstBlockAt() time.Duration { return j.firstBlock.Sub(j.submitted) }

// submitJob posts a query to the coordinator and streams its MAF back,
// noting when the first alignment block arrives.
func submitJob(ctx context.Context, base, target, queryName, fasta, client string) *coordJob {
	j := &coordJob{submitted: time.Now()}
	body, _ := json.Marshal(map[string]string{ //nolint:errchkjson // plain strings always marshal
		"target": target, "query_fasta": fasta, "query_name": queryName, "client": client,
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	var st struct {
		ID     string `json:"id"`
		MAFURL string `json:"maf_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		j.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return j
	}
	if err != nil {
		j.err = fmt.Errorf("submit: decoding status: %w", err)
		return j
	}
	j.id = st.ID
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+st.MAFURL, nil)
	if err != nil {
		j.err = err
		return j
	}
	resp, err = httpc.Do(req)
	if err != nil {
		j.err = fmt.Errorf("maf: %w", err)
		return j
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("maf: HTTP %d", resp.StatusCode)
		return j
	}
	var buf bytes.Buffer
	chunk := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			buf.Write(chunk[:n])
			if j.firstBlock.IsZero() && bytes.Contains(buf.Bytes(), []byte("\na score=")) {
				j.firstBlock = time.Now()
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			j.err = fmt.Errorf("maf: %w", rerr)
			return j
		}
	}
	j.done = time.Now()
	if j.firstBlock.IsZero() {
		j.firstBlock = j.done
	}
	j.maf = buf.Bytes()
	return j
}

// getJSON fetches a status document.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// coordStatus is the part of the coordinator's job view the benchmark
// reads.
type coordStatus struct {
	Dispatches int `json:"dispatches"`
	Worker     *struct {
		WorkerAddr  string `json:"worker_addr"`
		WorkerJobID string `json:"worker_job_id"`
	} `json:"worker"`
}

// workerStatus is the part of the worker's own job view the benchmark
// reads: lifecycle timestamps and the per-stage wall clock.
type workerStatus struct {
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Stats    *struct {
		Stages struct {
			Seeding struct {
				WallMS int64 `json:"wall_ms"`
			} `json:"seeding"`
			Filter struct {
				WallMS int64 `json:"wall_ms"`
			} `json:"filter"`
			Extension struct {
				WallMS int64 `json:"wall_ms"`
			} `json:"extension"`
		} `json:"stages"`
	} `json:"stats"`
}

// readyz reports whether the coordinator sees live workers serving
// at least targets targets.
func readyz(ctx context.Context, base string, targets int) bool {
	var st struct {
		Status        string `json:"status"`
		Workers       int    `json:"workers"`
		TargetsServed int    `json:"targets_served"`
	}
	if err := getJSON(ctx, base+"/readyz", &st); err != nil {
		return false
	}
	return st.Status == "ok" && st.Workers > 0 && st.TargetsServed >= targets
}
