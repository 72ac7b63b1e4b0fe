package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// epoch anchors span timestamps; time.Since reads the monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// clockReadNS is the median cost of one nowNS call, the unit of tracing
// overhead: a span costs two clock reads.
func clockReadNS() float64 {
	var xs []float64
	for k := 0; k < 9; k++ {
		const n = 10000
		t0 := nowNS()
		for i := 0; i < n; i++ {
			nowNS()
		}
		xs = append(xs, float64(nowNS()-t0)/n)
	}
	return median(xs)
}

// span is one timed interval around a call into a layer, recorded by the
// benchmark's own code. Parent is the index of the enclosing span in the
// same log (-1 for a root); Op groups the spans of one operation (a chunk
// of trials, a fleet round).
type span struct {
	Name       string
	Start, End int64 // ns since epoch
	Parent     int32
	Op         int64
}

// spanLog keeps spans in memory until the run ends. One goroutine owns a
// log; concurrent workers each fill their own and merge afterwards.
type spanLog struct{ spans []span }

// add records a finished span and returns its index for use as a parent.
func (l *spanLog) add(name string, parent int32, op, start, end int64) int32 {
	l.spans = append(l.spans, span{name, start, end, parent, op})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) len() int { return len(l.spans) }

// merge appends other's spans, rebasing their parent indices.
func (l *spanLog) merge(other *spanLog) {
	base := int32(len(l.spans))
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// layerTime is the aggregate of one span name: total self time (duration
// minus the parts its children cover), total duration, and span count.
type layerTime struct {
	SelfNS, TotalNS float64
	Count           int64
}

func (l *spanLog) aggregate() map[string]*layerTime {
	out := map[string]*layerTime{}
	get := func(name string) *layerTime {
		t := out[name]
		if t == nil {
			t = &layerTime{}
			out[name] = t
		}
		return t
	}
	for _, s := range l.spans {
		d := float64(s.End - s.Start)
		t := get(s.Name)
		t.SelfNS += d
		t.TotalNS += d
		t.Count++
		if s.Parent >= 0 {
			get(l.spans[s.Parent].Name).SelfNS -= d
		}
	}
	return out
}

// write dumps the spans as JSON lines: a header object, then one array per
// span, [index, name, start_ns, end_ns, parent, op].
func (l *spanLog) write(path string, c *runCtx) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	hdr, err := json.Marshal(map[string]any{
		"workload": c.workload,
		"seed":     c.seed,
		"host":     c.host,
		"fields":   []string{"index", "name", "start_ns", "end_ns", "parent", "op"},
	})
	if err != nil {
		return err
	}
	w.Write(hdr)
	w.WriteByte('\n')
	for i, s := range l.spans {
		fmt.Fprintf(w, "[%d,%q,%d,%d,%d,%d]\n", i, s.Name, s.Start, s.End, s.Parent, s.Op)
	}
	return w.Flush()
}
