package main

import "strconv"

// rng is splitmix64: tiny, seedable, and good enough to spread object
// choices uniformly. Everything the platform receives is derived from
// streams of it, so one -seed fixes the whole op stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix derives an independent stream seed from a seed and labels.
func mix(seed uint64, labels ...uint64) uint64 {
	r := rng{s: seed}
	for _, l := range labels {
		r.s ^= l * 0xd6e8feb86659fd93
		r.next()
	}
	return r.next()
}

const (
	docBytes     = 256 // state value rewritten by bump, quotes included
	payloadBytes = 64  // request body of every invocation
	docAlphabet  = "abcdefghijklmnopqrstuvwxyz0123456789"
)

// appendDoc appends the JSON string an object holds in its "doc" key
// after its n-th bump (n = 0 is what set-up seeds). It is a pure
// function of (seed, object, n), so the bump handler, the read
// verifier and the final backing-store check all agree on it without
// sharing state.
func appendDoc(dst []byte, seed uint64, object int, n int64) []byte {
	r := rng{s: mix(seed, 0xd0c, uint64(object), uint64(n))}
	dst = append(dst, '"')
	for i := 0; i < docBytes-2; i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < docBytes-2; j++ {
			dst = append(dst, docAlphabet[v&0xff%uint64(len(docAlphabet))])
			v >>= 8
		}
	}
	return append(dst, '"')
}

// appendPayload appends the 64-byte JSON body of operation op.
func appendPayload(dst []byte, r *rng, op int64) []byte {
	start := len(dst)
	dst = append(dst, `{"op":`...)
	dst = strconv.AppendInt(dst, op, 10)
	dst = append(dst, `,"pad":"`...)
	for len(dst)-start < payloadBytes-2 {
		dst = append(dst, docAlphabet[r.intn(len(docAlphabet))])
	}
	return append(dst, '"', '}')
}

// objectID names object i of a population ("d00042", "e0007").
func objectID(prefix byte, i int) string {
	b := make([]byte, 0, 8)
	b = append(b, prefix)
	s := strconv.Itoa(i)
	for pad := 5 - len(s); pad > 0; pad-- {
		b = append(b, '0')
	}
	return string(append(b, s...))
}

// objectIndex is the inverse of objectID; -1 for foreign ids.
func objectIndex(id string) int {
	if len(id) < 2 {
		return -1
	}
	n, ok := atoi([]byte(id[1:]))
	if !ok {
		return -1
	}
	return n
}

// stream is one client's seeded operation source. Each client owns a
// disjoint slice of the population (object i belongs to client
// i mod clients), so every object has a single writer: its counter is
// predictable before the request is sent and "n strictly increasing"
// is checked without cross-client ordering.
type stream struct {
	r       rng
	client  int
	clients int
	objects int
	op      int64
}

func newStream(seed uint64, workload string, client, clients, objects int) *stream {
	var label uint64
	for _, c := range []byte(workload) {
		label = label*131 + uint64(c)
	}
	return &stream{r: rng{s: mix(seed, label, uint64(client))}, client: client, clients: clients, objects: objects}
}

// nextObject picks uniformly among the client's objects.
func (s *stream) nextObject() int {
	own := (s.objects - s.client + s.clients - 1) / s.clients
	return s.client + s.r.intn(own)*s.clients
}

// nextPayload appends the next operation's body to dst.
func (s *stream) nextPayload(dst []byte) []byte {
	s.op++
	return appendPayload(dst, &s.r, s.op)
}
