package main

import "time"

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own files, around its calls into each
// layer; the program itself records none.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps a traced pass's spans in memory until the process ends.
// A nil recorder records nothing, which is how the end-to-end pass runs.
type recorder struct {
	t0       time.Time
	workload string
	run      int
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Workload: r.workload, Run: r.run, StartNs: time.Since(r.t0).Nanoseconds(),
	})
	return len(r.spans)
}

// end closes the span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	if r == nil || id == 0 {
		return 0
	}
	s := &r.spans[id-1]
	s.EndNs = time.Since(r.t0).Nanoseconds()
	return float64(s.EndNs-s.StartNs) / 1e9
}

// seconds sums the durations of every span with the given name.
func (r *recorder) seconds(name string) float64 {
	var ns int64
	for _, s := range r.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}
