package main

import (
	"fmt"
	"slices"

	"spal/internal/ip"
	"spal/internal/router"
	"spal/internal/rtable"
)

// Oracle answers longest-prefix matches from one hash map per prefix
// length, probed from /32 down. It shares no code with the lpm engines or
// with rtable's lookups, so a fault in either cannot hide from it.
type Oracle struct {
	byLen [33]map[uint32]rtable.NextHop
}

// NewOracle indexes routes; a later duplicate prefix replaces an earlier one.
func NewOracle(routes []rtable.Route) *Oracle {
	o := &Oracle{}
	for l := range o.byLen {
		o.byLen[l] = make(map[uint32]rtable.NextHop)
	}
	for _, r := range routes {
		o.set(r.Prefix, r.NextHop)
	}
	return o
}

func (o *Oracle) set(p ip.Prefix, nh rtable.NextHop) {
	o.byLen[p.Len][p.Value&ip.Mask(p.Len)] = nh
}

// Apply applies a batch of updates in order, as rtable.Table.ApplyAll
// specifies: a withdraw removes the prefix if present, an announce adds or
// replaces it.
func (o *Oracle) Apply(batch []rtable.Update) {
	for _, u := range batch {
		p := u.Route.Prefix
		if u.Kind == rtable.Withdraw {
			delete(o.byLen[p.Len], p.Value&ip.Mask(p.Len))
		} else {
			o.set(p, u.Route.NextHop)
		}
	}
}

// Lookup returns the next hop of the longest prefix covering a.
func (o *Oracle) Lookup(a ip.Addr) (rtable.NextHop, bool) {
	for l := 32; l >= 0; l-- {
		m := o.byLen[l]
		if len(m) == 0 {
			continue
		}
		if nh, ok := m[a&ip.Mask(uint8(l))]; ok {
			return nh, true
		}
	}
	return rtable.NoNextHop, false
}

// lookupOverlay is Lookup on the table the oracle holds with pending
// applied on top (the last event for a prefix wins). It answers for a
// version a few batches ahead without mutating the oracle.
func (o *Oracle) lookupOverlay(a ip.Addr, pending []rtable.Update) (rtable.NextHop, bool) {
	for l := 32; l >= 0; l-- {
		key := a & ip.Mask(uint8(l))
		decided := false
		for k := len(pending) - 1; k >= 0; k-- {
			p := pending[k].Route.Prefix
			if int(p.Len) != l || p.Value&ip.Mask(p.Len) != key {
				continue
			}
			if pending[k].Kind == rtable.Announce {
				return pending[k].Route.NextHop, true
			}
			decided = true // withdrawn: nothing at this length
			break
		}
		if decided {
			continue
		}
		if nh, ok := o.byLen[l][key]; ok {
			return nh, true
		}
	}
	return rtable.NoNextHop, false
}

// Checker verifies router verdicts for a fixed input sequence against a
// table that moves through versions: version 0 is the initial table and
// version k is version k-1 with batches[k-1] applied. A verdict is
// accepted when it matches any version in the window [lo, hi] of the
// versions live during its call. Checks must come in nondecreasing lo
// order (one lookup driver issuing calls in sequence gives that), because
// the checker advances its oracle monotonically.
type Checker struct {
	tbl     *rtable.Table
	oracle  *Oracle
	batches [][]rtable.Update
	at      int // version the oracle holds

	inputs []ip.Addr
	want   []expected // want[i]: verdict for inputs[i] at version at
	want0  []expected // want at version 0
	// order holds address<<32 | input index, sorted, to find the inputs a
	// batch touches.
	order []uint64
}

type expected struct {
	nh rtable.NextHop
	ok bool
}

// NewChecker prepares expectations for every input at version 0.
func NewChecker(tbl *rtable.Table, batches [][]rtable.Update, inputs []ip.Addr) *Checker {
	c := &Checker{
		tbl:     tbl,
		oracle:  NewOracle(tbl.Routes()),
		batches: batches,
		inputs:  inputs,
		want:    make([]expected, len(inputs)),
	}
	for i, a := range inputs {
		nh, ok := c.oracle.Lookup(a)
		c.want[i] = expected{nh, ok}
	}
	c.want0 = slices.Clone(c.want)
	if len(batches) > 0 {
		c.order = make([]uint64, len(inputs))
		for i, a := range inputs {
			c.order[i] = uint64(a)<<32 | uint64(i)
		}
		slices.Sort(c.order)
	}
	return c
}

// Reset returns the checker to version 0, for a router built afresh
// from the initial table.
func (c *Checker) Reset() {
	if c.at == 0 {
		return
	}
	c.oracle = NewOracle(c.tbl.Routes())
	c.at = 0
	copy(c.want, c.want0)
}

// advance moves the oracle to version v and refreshes the expectations
// of the inputs the applied batches cover.
func (c *Checker) advance(v int) {
	for c.at < v {
		batch := c.batches[c.at]
		c.oracle.Apply(batch)
		c.at++
		for _, r := range rtable.UpdateRanges(batch) {
			j, _ := slices.BinarySearch(c.order, uint64(r.Lo)<<32)
			for ; j < len(c.order) && ip.Addr(c.order[j]>>32) <= r.Hi; j++ {
				i := uint32(c.order[j])
				nh, ok := c.oracle.Lookup(c.inputs[i])
				c.want[i] = expected{nh, ok}
			}
		}
	}
}

// Check verifies the verdict for inputs[i] from a call during which the
// versions lo..hi were live.
func (c *Checker) Check(i int, got router.Verdict, lo, hi int) error {
	a := c.inputs[i]
	if got.Addr != a || got.ServedBy == router.ServedByUnknown {
		return fmt.Errorf("address %s: missing verdict (got %+v)", ip.FormatAddr(a), got)
	}
	if lo < c.at || lo > hi || hi > len(c.batches) {
		return fmt.Errorf("address %s: bad version window [%d,%d] with oracle at %d", ip.FormatAddr(a), lo, hi, c.at)
	}
	c.advance(lo)
	if matches(got, c.want[i]) {
		return nil
	}
	var pending []rtable.Update
	for v := lo + 1; v <= hi; v++ {
		pending = append(pending, c.batches[v-1]...)
		nh, ok := c.oracle.lookupOverlay(a, pending)
		if matches(got, expected{nh, ok}) {
			return nil
		}
	}
	return fmt.Errorf("address %s: got next hop %d (ok=%v, served by %s), want %d (ok=%v) at version %d..%d",
		ip.FormatAddr(a), got.NextHop, got.OK, got.ServedBy, c.want[i].nh, c.want[i].ok, lo, hi)
}

func matches(got router.Verdict, w expected) bool {
	if got.OK != w.ok {
		return false
	}
	return !w.ok || got.NextHop == w.nh
}
