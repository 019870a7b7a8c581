package cpu

import "mellow/internal/mem"

// HeldRequests reports the read requests the core holds: the number of
// distinct requests, and the number of references it keeps on them (one
// per holder: ROB load, fetch, prefetch, dependence chain).
func (c *Core) HeldRequests() (distinct, refs int) {
	seen := map[*mem.Request]bool{}
	hold := func(r *mem.Request) {
		seen[r] = true
		refs++
	}
	for i := 0; i < c.loads.len(); i++ {
		if r := c.loads.at(i).req; r != nil {
			hold(r)
		}
	}
	for _, r := range c.fetches {
		hold(r)
	}
	for _, e := range c.pf.inflight {
		hold(e.req)
	}
	if c.lastLoadReq != nil {
		hold(c.lastLoadReq)
	}
	return len(seen), refs
}
