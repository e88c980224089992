package main

import (
	"strings"
	"testing"

	"spal/internal/ip"
	"spal/internal/router"
	"spal/internal/rtable"
	"spal/internal/stats"
)

func route(s string, nh rtable.NextHop) rtable.Route {
	return rtable.Route{Prefix: ip.MustPrefix(s), NextHop: nh}
}

func addr(t *testing.T, s string) ip.Addr {
	t.Helper()
	a, err := ip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkerFixture: 10.0.0.0/8 -> 1 and 10.1.0.0/16 -> 2 at version 0;
// version 1 re-announces 10.1.0.0/16 -> 3; version 2 withdraws it.
func checkerFixture(t *testing.T) (*Checker, []ip.Addr) {
	tbl := rtable.New([]rtable.Route{route("10.0.0.0/8", 1), route("10.1.0.0/16", 2)})
	batches := [][]rtable.Update{
		{{Kind: rtable.Announce, Route: route("10.1.0.0/16", 3)}},
		{{Kind: rtable.Withdraw, Route: route("10.1.0.0/16", 0)}},
	}
	inputs := []ip.Addr{addr(t, "10.1.2.3"), addr(t, "10.9.9.9"), addr(t, "11.0.0.1")}
	return NewChecker(tbl, batches, inputs), inputs
}

func verdict(a ip.Addr, nh rtable.NextHop, ok bool) router.Verdict {
	return router.Verdict{Addr: a, NextHop: nh, OK: ok, ServedBy: router.ServedByFE}
}

func TestCheckerAcceptsCorrectVerdicts(t *testing.T) {
	c, in := checkerFixture(t)
	for _, tc := range []struct {
		i      int
		v      router.Verdict
		lo, hi int
	}{
		{0, verdict(in[0], 2, true), 0, 0},
		{1, verdict(in[1], 1, true), 0, 0},
		{2, verdict(in[2], rtable.NoNextHop, false), 0, 0},
		{0, verdict(in[0], 3, true), 0, 1}, // the call saw the announce
		{0, verdict(in[0], 2, true), 0, 2}, // ... or did not yet
		{0, verdict(in[0], 1, true), 1, 2}, // the withdraw uncovers the /8
		{0, verdict(in[0], 1, true), 2, 2},
	} {
		if err := c.Check(tc.i, tc.v, tc.lo, tc.hi); err != nil {
			t.Errorf("input %d window [%d,%d]: %v", tc.i, tc.lo, tc.hi, err)
		}
	}
}

func TestCheckerRejectsWrongNextHop(t *testing.T) {
	c, in := checkerFixture(t)
	if err := c.Check(1, verdict(in[1], 2, true), 0, 0); err == nil {
		t.Fatal("accepted next hop 2 for an address only the /8 covers")
	}
	if err := c.Check(2, verdict(in[2], 1, true), 0, 0); err == nil {
		t.Fatal("accepted a route for an address no prefix covers")
	}
	if err := c.Check(1, verdict(in[1], 1, false), 0, 0); err == nil {
		t.Fatal("accepted a no-route verdict for a covered address")
	}
}

func TestCheckerRejectsVersionOutsideWindow(t *testing.T) {
	c, in := checkerFixture(t)
	// Next hop 3 exists only at version 1.
	if err := c.Check(0, verdict(in[0], 3, true), 0, 0); err == nil {
		t.Fatal("accepted a version-1 verdict from a call that saw only version 0")
	}
	// Next hop 2 is version 0's answer; a call that began after
	// version 1 was in place must not return it.
	if err := c.Check(0, verdict(in[0], 2, true), 1, 1); err == nil {
		t.Fatal("accepted a version-0 verdict from a call that saw only version 1")
	}
	if err := c.Check(0, verdict(in[0], 3, true), 2, 2); err == nil {
		t.Fatal("accepted a version-1 verdict after the withdraw had returned")
	}
}

func TestCheckerRejectsMissingVerdict(t *testing.T) {
	c, in := checkerFixture(t)
	err := c.Check(0, router.Verdict{}, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("zero verdict: got %v, want a missing-verdict error", err)
	}
	// A verdict for another address is not the verdict asked for.
	if err := c.Check(0, verdict(in[1], 2, true), 0, 0); err == nil {
		t.Fatal("accepted a verdict for a different address")
	}
}

func TestCheckerRejectsOutOfOrderWindow(t *testing.T) {
	c, in := checkerFixture(t)
	if err := c.Check(0, verdict(in[0], 1, true), 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Check(0, verdict(in[0], 2, true), 0, 0); err == nil {
		t.Fatal("accepted a window the oracle has already moved past")
	}
}

// TestOracleAgainstLinearScan cross-checks the oracle, with updates
// applied, against rtable's linear scan on a synthesized table.
func TestOracleAgainstLinearScan(t *testing.T) {
	tbl := rtable.Small(2000, 11)
	ups := rtable.GenerateUpdates(tbl, rtable.UpdateStreamConfig{
		RatePerSecond: 1000, CycleNS: 5, Duration: 2e8, WithdrawProb: 0.4, NewPrefixProb: 0.3, Seed: 5,
	})
	if len(ups) < 100 {
		t.Fatalf("only %d updates generated", len(ups))
	}
	o := NewOracle(tbl.Routes())
	o.Apply(ups)
	final := tbl.ApplyAll(ups)
	rng := stats.NewRNG(9)
	for i := 0; i < 5000; i++ {
		a := final.RandomMatchedAddr(rng)
		if i%5 == 0 {
			a = ip.Addr(rng.Uint64())
		}
		wantNH, wantOK := final.LookupLinear(a)
		nh, ok := o.Lookup(a)
		if ok != wantOK || (ok && nh != wantNH) {
			t.Fatalf("%s: oracle (%d,%v), linear scan (%d,%v)", ip.FormatAddr(a), nh, ok, wantNH, wantOK)
		}
	}
}
