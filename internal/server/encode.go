package server

import "strconv"

// The append encoder of the hot bodies: /spg (either kind) and
// /distance are written field by field with strconv into the pooled
// buffer, byte for byte what encoding/json's Encoder (HTML escaping off)
// produces for the same struct — the goldens and the differential test
// hold it to that. Every other body stays on encoding/json.

// appendSPGResponse appends the /spg body for r and a newline. The edge
// list is read from edges, the answer's own in canonical order, in place
// of r.Edges, so that the handler never copies the result into the
// response; an empty list is null, as a nil slice is. Each edge is a
// pair of positions in r.Vertices (graph.SPG.Dense): every vertex is
// formatted once, where the vertex list writes it, and an edge copies
// its endpoints' bytes from there. at is scratch for the vertices'
// offsets in b and is returned for reuse.
// r.Coverage is one of the handlers' constant names and is written
// unescaped.
func appendSPGResponse(b []byte, r *SPGResponse, edges [][2]int32, at []int32) ([]byte, []int32) {
	b = append(b, `{"source":`...)
	b = strconv.AppendInt(b, int64(r.Source), 10)
	b = append(b, `,"target":`...)
	b = strconv.AppendInt(b, int64(r.Target), 10)
	b = append(b, `,"distance":`...)
	b = appendIntOrNull(b, r.Distance)
	b = append(b, `,"vertices":`...)
	at = at[:0]
	if r.Vertices == nil {
		b = append(b, "null"...)
	} else {
		// Vertex i is b[at[i]:at[i+1]-1]: one byte, a comma or the
		// closing bracket, follows each.
		b = append(b, '[')
		for i, v := range r.Vertices {
			if i > 0 {
				b = append(b, ',')
			}
			at = append(at, int32(len(b)))
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
		at = append(at, int32(len(b)))
	}
	b = append(b, `,"edges":`...)
	if len(edges) == 0 {
		b = append(b, "null"...)
	} else {
		sep := byte('[')
		for _, e := range edges {
			b = append(b, sep, '[')
			b = append(b, b[at[e[0]]:at[e[0]+1]-1]...)
			b = append(b, ',')
			b = append(b, b[at[e[1]]:at[e[1]+1]-1]...)
			b = append(b, ']')
			sep = ','
		}
		b = append(b, ']')
	}
	b = append(b, `,"num_shortest_paths":`...)
	b = strconv.AppendInt(b, r.NumPaths, 10)
	if r.NumPathsSaturated {
		b = append(b, `,"num_shortest_paths_saturated":true`...)
	}
	b = append(b, `,"d_top":`...)
	b = appendIntOrNull(b, r.DTop)
	b = append(b, `,"arcs_scanned":`...)
	b = strconv.AppendInt(b, r.ArcsScanned, 10)
	b = append(b, `,"coverage":"`...)
	b = append(b, r.Coverage...)
	b = append(b, `","disconnected":`...)
	b = strconv.AppendBool(b, r.Disconnected)
	if r.Directed {
		b = append(b, `,"directed":true`...)
	}
	return append(b, "}\n"...), at
}

// appendDistanceResponse appends the /distance body for r and a newline.
func appendDistanceResponse(b []byte, r *DistanceResponse) []byte {
	b = append(b, `{"source":`...)
	b = strconv.AppendInt(b, int64(r.Source), 10)
	b = append(b, `,"target":`...)
	b = strconv.AppendInt(b, int64(r.Target), 10)
	b = append(b, `,"distance":`...)
	b = appendIntOrNull(b, r.Distance)
	b = append(b, `,"disconnected":`...)
	b = strconv.AppendBool(b, r.Disconnected)
	return append(b, "}\n"...)
}

func appendIntOrNull(b []byte, p *int32) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	return strconv.AppendInt(b, int64(*p), 10)
}
