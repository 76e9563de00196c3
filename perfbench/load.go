package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pqfastscan"
	"pqfastscan/internal/server"
)

// client is the benchmark's only HTTP client. Its transport allows at
// most conns connections per host, so the load generator never holds
// more connections to the system than it has goroutines.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
	}}
}

// post sends body to url and returns the status and the response body
// appended to buf[:0].
func post(c *http.Client, url string, body []byte, buf []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, buf[:0], err
	}
	defer resp.Body.Close()
	b := bytes.NewBuffer(buf[:0])
	_, err = io.Copy(b, resp.Body)
	return resp.StatusCode, b.Bytes(), err
}

// searchBody marshals one /search request.
func searchBody(w Workload, q []float32) []byte {
	raw, err := json.Marshal(server.SearchRequest{Query: q, K: w.K, NProbe: w.NProbe})
	if err != nil {
		panic(err) // a float32 slice and ints always marshal
	}
	return raw
}

// opKind is the kind of operation the load generator sends.
type opKind int

const (
	opRead opKind = iota
	opWrite
)

// phase describes one measured load phase.
type phase struct {
	Name     string  `json:"name"`
	Loop     string  `json:"loop"` // "open" or "closed"
	Rate     float64 `json:"read_rate,omitempty"`
	Write    float64 `json:"write_rate,omitempty"`
	Clients  int     `json:"clients"`
	Seconds  float64 `json:"seconds"`
	open     bool
	duration time.Duration
}

// phaseResult is what the clients observed in one phase.
type phaseResult struct {
	Elapsed       time.Duration
	ReadLat       []float64 // ms, successful reads, from due (open) or send (closed)
	WriteLat      []float64 // ms, acknowledged writes, from due time
	Reads, ReadOK int
	Writes        int
	Failed        int // refused, errored or wrong operations
	Wrong         int // answers that differ from the expected ones
	FailNotes     []string
}

// writer is the fixed-rate /add and /delete stream: adds post fresh
// vectors, deletes remove the oldest acknowledged add, and the ledger
// lets the caller check the final live count.
type writer struct {
	url     string
	vectors pqfastscan.Matrix

	mu        sync.Mutex
	next      int     // next vector to add
	acked     []int64 // acknowledged adds not yet deleted, oldest first
	AckedAdds int
	AckedDels int
}

// do performs write number i: an add when i is even or nothing is left
// to delete, otherwise a delete of the oldest acknowledged add. It
// returns whether the write was acknowledged, and whether the answer
// was wrong (a delete of an acknowledged add reported missing).
func (wr *writer) do(c *http.Client, i int, buf []byte) (ok, wrong bool, note string) {
	wr.mu.Lock()
	del := i%2 == 1 && len(wr.acked) > 0
	var id int64
	var vec []float32
	if del {
		id, wr.acked = wr.acked[0], wr.acked[1:]
	} else {
		vec = wr.vectors.Row(wr.next % wr.vectors.Rows())
		wr.next++
	}
	wr.mu.Unlock()

	if del {
		body, _ := json.Marshal(server.DeleteRequest{ID: id})
		status, out, err := post(c, wr.url+"/delete", body, buf)
		if err != nil || status != http.StatusOK {
			return false, status == http.StatusNotFound, fmt.Sprintf("delete %d: status %d err %v", id, status, err)
		}
		var resp server.DeleteResponse
		if json.Unmarshal(out, &resp) != nil || !resp.Deleted {
			return false, true, fmt.Sprintf("delete %d: not reported deleted: %s", id, out)
		}
		wr.mu.Lock()
		wr.AckedDels++
		wr.mu.Unlock()
		return true, false, ""
	}
	body, _ := json.Marshal(server.AddRequest{Vectors: [][]float32{vec}})
	status, out, err := post(c, wr.url+"/add", body, buf)
	if err != nil || status != http.StatusOK {
		return false, false, fmt.Sprintf("add: status %d err %v", status, err)
	}
	var resp server.AddResponse
	if json.Unmarshal(out, &resp) != nil || len(resp.IDs) != 1 {
		return false, true, fmt.Sprintf("add: bad answer %s", out)
	}
	wr.mu.Lock()
	wr.acked = append(wr.acked, resp.IDs[0])
	wr.AckedAdds++
	wr.mu.Unlock()
	return true, false, ""
}

// source hands out operations to the client goroutines in due-time
// order: reads on the open-loop schedule (or immediately, closed loop)
// and writes on their own fixed-rate schedule.
type source struct {
	mu        sync.Mutex
	open      bool
	start     time.Time
	end       time.Time
	readGap   time.Duration
	reads     int // reads handed out
	writeGap  time.Duration
	writeNext time.Time
	writes    int
}

// next returns the next operation, its sequence number within its kind
// and its due time; done is true once the phase is over.
func (s *source) next() (kind opKind, seq int, due time.Time, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	var readDue time.Time
	if s.open {
		readDue = s.start.Add(time.Duration(s.reads) * s.readGap)
	} else {
		readDue = now
	}
	readsOver := !readDue.Before(s.end)
	if s.writeGap > 0 && !s.writeNext.After(readDue) && s.writeNext.Before(s.end) {
		due, seq = s.writeNext, s.writes
		s.writes++
		s.writeNext = s.writeNext.Add(s.writeGap)
		return opWrite, seq, due, false
	}
	if readsOver {
		return 0, 0, time.Time{}, true
	}
	seq = s.reads
	s.reads++
	return opRead, seq, readDue, false
}

// runPhase drives one phase with p.Clients goroutines against url. Read
// number i sends bodies[i%len]; when expected is non-nil, its answer
// must equal expected[i%len] byte for byte. rec, when non-nil, records
// for each operation a request span from its due time with a child
// span from its send.
func runPhase(c *http.Client, url string, p phase, bodies, expected [][]byte, wr *writer, writeStart time.Time, rec *Recorder) phaseResult {
	start := time.Now()
	src := &source{open: p.open, start: start, end: start.Add(p.duration)}
	if p.open {
		src.readGap = time.Duration(float64(time.Second) / p.Rate)
	}
	if wr != nil && p.Write > 0 {
		src.writeGap = time.Duration(float64(time.Second) / p.Write)
		src.writeNext = writeStart
		for src.writeNext.Before(start) {
			src.writeNext = src.writeNext.Add(src.writeGap)
		}
	}
	results := make([]phaseResult, p.Clients)
	var wg sync.WaitGroup
	for g := 0; g < p.Clients; g++ {
		wg.Add(1)
		go func(r *phaseResult) {
			defer wg.Done()
			buf := make([]byte, 0, 16<<10)
			for {
				kind, seq, due, done := src.next()
				if done {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if !p.open && kind == opRead {
					due = time.Now()
				}
				qid := seq
				if kind == opWrite {
					qid = -seq - 1
				}
				span := rec.BeginAt("client.request", 0, qid, due)
				send := rec.Begin("client.send", span, qid)
				if kind == opRead {
					qi := seq % len(bodies)
					status, out, err := post(c, url+"/search", bodies[qi], buf)
					buf = out
					r.Reads++
					switch {
					case err != nil || status != http.StatusOK:
						r.Failed++
						r.note(fmt.Sprintf("search: status %d err %v", status, err))
					case expected != nil && !bytes.Equal(out, expected[qi]):
						r.Failed++
						r.Wrong++
						r.note(fmt.Sprintf("search query %d: answer differs from the expected one", qi))
					default:
						r.ReadOK++
						r.ReadLat = append(r.ReadLat, ms(time.Since(due)))
					}
				} else {
					ok, wrong, note := wr.do(c, seq, buf)
					r.Writes++
					if ok {
						r.WriteLat = append(r.WriteLat, ms(time.Since(due)))
					} else {
						r.Failed++
						r.note(note)
					}
					if wrong {
						r.Wrong++
					}
				}
				rec.End(send)
				rec.End(span)
			}
		}(&results[g])
	}
	wg.Wait()
	out := phaseResult{Elapsed: time.Since(start)}
	for _, r := range results {
		out.ReadLat = append(out.ReadLat, r.ReadLat...)
		out.WriteLat = append(out.WriteLat, r.WriteLat...)
		out.Reads += r.Reads
		out.ReadOK += r.ReadOK
		out.Writes += r.Writes
		out.Failed += r.Failed
		out.Wrong += r.Wrong
		out.FailNotes = append(out.FailNotes, r.FailNotes...)
	}
	return out
}

// writeProbe sends pairs add-then-delete pairs back to back from one
// client: the write path of a workload whose traffic is read-only,
// measured after its read phases so that it cannot disturb them. Only
// the adds are timed; each delete restores the index (and keeps at most
// one probe vector live). Timing both would put the median between the
// add and delete modes, where it jumps from run to run.
func writeProbe(c *http.Client, wr *writer, pairs int) phaseResult {
	var r phaseResult
	start := time.Now()
	buf := make([]byte, 0, 1024)
	for i := 0; i < 2*pairs; i++ {
		t0 := time.Now()
		ok, wrong, note := wr.do(c, i, buf)
		r.Writes++
		if ok && i%2 == 0 {
			r.WriteLat = append(r.WriteLat, ms(time.Since(t0)))
		} else if !ok {
			r.Failed++
			r.note(note)
		}
		if wrong {
			r.Wrong++
		}
	}
	r.Elapsed = time.Since(start)
	return r
}

// note keeps the first few failure descriptions for the report.
func (r *phaseResult) note(s string) {
	if len(r.FailNotes) < 5 {
		r.FailNotes = append(r.FailNotes, s)
	}
}
