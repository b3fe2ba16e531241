package oodb

// AppendCapped is append(s, v) for a per-slot array that never needs more
// than limit elements — a cache's residents, an LRU's nodes. A full s grows
// as append grows it (doubling while small, then by a quarter), but to at
// most limit, so an array that fills up stops at its limit instead of at
// the next step past it. A limit that s has already reached grows it by one
// element: a wrong limit costs memory, never correctness.
func AppendCapped[T any](s []T, limit int, v T) []T {
	if len(s) == cap(s) {
		s = growCapped(s, limit)
	}
	return append(s, v)
}

// growCapped is AppendCapped's growth, out of line so that the append
// itself inlines.
func growCapped[T any](s []T, limit int) []T {
	n := len(s)
	c := max(2*n, 4)
	if n >= 256 {
		c = n + (n+3*256)/4
	}
	grown := make([]T, n, max(min(c, limit), n+1))
	copy(grown, s)
	return grown
}
