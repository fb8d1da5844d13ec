package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request share
// req; parent names the layer whose span the call was made one depth
// under.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Items   int    `json:"items"`
}

// spanLog keeps spans in memory until the run ends. With on false, timed
// still times the call but records nothing, which is how the ledger
// measures what recording costs.
type spanLog struct {
	origin time.Time
	on     bool
	spans  []span
}

// timed runs fn and returns its wall time in ns, recording a span when the
// log is on.
func (l *spanLog) timed(name string, req int, parent string, items int, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	if l.on {
		l.spans = append(l.spans, span{name, req, parent, t0.Sub(l.origin).Nanoseconds(), t1.Sub(l.origin).Nanoseconds(), items})
	}
	return float64(t1.Sub(t0).Nanoseconds())
}

// write stores the spans as one JSON object per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
