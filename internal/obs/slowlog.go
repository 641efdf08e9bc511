package obs

// SlowLogCapacity is how many slow requests a tracer's slow-query log
// lists before the oldest is overwritten.
const SlowLogCapacity = 128

// SlowEntry is one slow-query log record: a reading of the request's
// retained trace, to which Trace links (/debug/traces/{id}). The
// stages are the durations of its stage:* spans; query identity is the
// root span's u, v and dist attrs (HasQuery: they are there), the
// engine counters are attrs of stage:expand and stage:sketch.
type SlowEntry struct {
	TraceID    string `json:"trace_id"`
	Trace      string `json:"trace,omitempty"`
	Endpoint   string `json:"endpoint"`
	Status     int    `json:"status"`
	UnixMs     int64  `json:"unix_ms"`
	DurationNs int64  `json:"duration_ns"`
	Stages     struct {
		ParseNs     int64 `json:"parse_ns"`
		SketchNs    int64 `json:"sketch_ns"`
		ExpandNs    int64 `json:"expand_ns"`
		ExtractNs   int64 `json:"extract_ns"`
		SerializeNs int64 `json:"serialize_ns"`
	} `json:"stages"`
	HasQuery     bool  `json:"has_query"`
	U            int64 `json:"u"`
	V            int64 `json:"v"`
	Dist         int32 `json:"dist"`
	ArcsScanned  int64 `json:"arcs_scanned"`
	LabelEntries int64 `json:"label_entries"`
}

// SlowLogResponse is the JSON body of GET /debug/slowlog.
type SlowLogResponse struct {
	ThresholdNs int64       `json:"threshold_ns"`
	Capacity    int         `json:"capacity"`
	Entries     []SlowEntry `json:"entries"`
}

// SlowLog renders the slow-query log, newest first, capped at limit
// entries (limit <= 0: all): the retained traces of the requests
// (BeginRequest) that took at least the tracer's slow threshold.
func (t *Tracer) SlowLog(limit int) SlowLogResponse {
	slow := t.slow.recent(limit, nil)
	resp := SlowLogResponse{
		ThresholdNs: t.slowNs.Load(),
		Capacity:    SlowLogCapacity,
		Entries:     make([]SlowEntry, len(slow)),
	}
	for i, st := range slow {
		resp.Entries[i] = st.slowEntry()
	}
	return resp
}

func (st *StoredTrace) slowEntry() SlowEntry {
	e := SlowEntry{
		TraceID:    st.TraceID,
		Trace:      "/debug/traces/" + st.TraceID,
		Endpoint:   st.Root,
		UnixMs:     (st.StartUnixNs + st.DurationNs) / 1e6, // when it ended
		DurationNs: st.DurationNs,
	}
	intAttr := func(sp *StoredSpan, key string) int64 {
		v, _ := sp.Attrs[key].(int64)
		return v
	}
	// Spans[0] is the root: a snapshot lays spans out in recording order.
	root := &st.Spans[0]
	if path, ok := root.Attrs["path"].(string); ok {
		// A router's root is named for the tier; what it served is the
		// path attr.
		e.Endpoint = path
	}
	e.Status = int(intAttr(root, "status"))
	_, e.HasQuery = root.Attrs["u"]
	e.U, e.V, e.Dist = intAttr(root, "u"), intAttr(root, "v"), int32(intAttr(root, "dist"))
	stageNs := [NumStages]*int64{&e.Stages.ParseNs, &e.Stages.SketchNs, &e.Stages.ExpandNs, &e.Stages.ExtractNs, &e.Stages.SerializeNs}
	for i := 1; i < len(st.Spans); i++ {
		sp := &st.Spans[i]
		stage, ok := stageOf(sp.Name)
		if !ok {
			continue
		}
		*stageNs[stage] += sp.DurationNs
		switch stage {
		case StageSketch:
			e.LabelEntries = intAttr(sp, "label_entries")
		case StageExpand:
			e.ArcsScanned = intAttr(sp, "arcs_scanned")
		}
	}
	return e
}
