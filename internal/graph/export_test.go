package graph

import "slices"

// Depth returns the depth of v in the answer's layering, its distance
// from Source, or -1 when v is not in the answer or not reachable from
// Source within it.
func (s *SPG) Depth(v V) int32 {
	s.layer()
	i := s.rankOf(v)
	if i < 0 {
		return -1
	}
	return s.depth[i]
}

// Next returns the out-neighbours of v in the layering (toward Target)
// in ascending id order, or nil when v is not in the answer.
func (s *SPG) Next(v V) []V {
	s.layer()
	i := s.rankOf(v)
	if i < 0 {
		return nil
	}
	var out []V
	for _, w := range s.next(i) {
		out = append(out, s.verts[w])
	}
	return out
}

// Prev returns the in-neighbours of v in the layering (toward Source)
// in ascending id order. The layering keeps out-arcs only, so Prev scans
// all of them.
func (s *SPG) Prev(v V) []V {
	s.layer()
	i := s.rankOf(v)
	if i < 0 {
		return nil
	}
	var out []V
	for u := range s.verts {
		if slices.Contains(s.next(int32(u)), i) {
			out = append(out, s.verts[u])
		}
	}
	return out
}
