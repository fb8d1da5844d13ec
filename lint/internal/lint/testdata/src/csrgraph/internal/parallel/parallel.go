// Package parallel is a fixture stub of the fork-join substrate: the same
// exported call shapes as the real package, with trivial sequential
// bodies, so poolcapture fixtures resolve their call sites.
package parallel

type Range struct{ Start, End int }

func For(n, p int, body func(chunk int, r Range)) {
	if n > 0 {
		body(0, Range{0, n})
	}
}

func ForEach(n, p int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

func ForDynamic(n, p, grain int, body func(worker int, r Range)) {
	if n > 0 {
		body(0, Range{0, n})
	}
}

type Pool struct{}

func (pl *Pool) For(n, p int, body func(chunk int, r Range)) { For(n, p, body) }

func (pl *Pool) ForDynamic(n, p, grain int, body func(worker int, r Range)) {
	ForDynamic(n, p, grain, body)
}
