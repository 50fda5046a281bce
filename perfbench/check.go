package main

import (
	"errors"
	"fmt"
)

// The result checks are pure functions of the benchmark's own tallies and
// the values read back from the cluster, so the tests can feed them
// corrupted tallies. Operations that failed (error or timeout) are
// indeterminate: their effect may or may not have committed, so a check
// allows a final value anywhere in [committed, committed+indeterminate].

// tally is what the benchmark knows about one counter: the sum of the
// increments of committed transactions, and of transactions whose outcome
// is unknown.
type tally struct {
	Committed     int64
	Indeterminate int64
}

func (t tally) admits(v int64) bool {
	return v >= t.Committed && v <= t.Committed+t.Indeterminate
}

// checkCounters requires every counter's final value to equal its tally
// of committed increments.
func checkCounters(names []string, tallies []tally, final []int64) error {
	if len(tallies) != len(final) || len(names) != len(final) {
		return fmt.Errorf("counter check: %d names, %d tallies, %d final values", len(names), len(tallies), len(final))
	}
	var errs []error
	for i, t := range tallies {
		if !t.admits(final[i]) {
			errs = append(errs, fmt.Errorf("%s: final %d, committed increments %d (+%d indeterminate)",
				names[i], final[i], t.Committed, t.Indeterminate))
			if len(errs) >= 5 {
				break
			}
		}
	}
	return errors.Join(errs...)
}

// readObs is one GetCommitted result and the increments issued to its key
// before the read returned.
type readObs struct {
	Slot   int32
	Value  int64
	Issued int64
}

// checkReads requires every committed read to be at most the sum of the
// increments issued to its key before the read returned: a read can only
// see writes that already exist.
func checkReads(names []string, reads []readObs) error {
	for _, r := range reads {
		if r.Value > r.Issued || r.Value < 0 {
			return fmt.Errorf("read of %s returned %d, only %d issued before it returned",
				names[r.Slot], r.Value, r.Issued)
		}
	}
	return nil
}

// tpccState holds the TPC-C columns the checks compare, per warehouse
// (W_YTD) and per district (D_YTD, next order id), districts numbered
// (w-1)*districts + (d-1).
type tpccState struct {
	WYTD    []int64
	DYTD    []int64
	NextOID []int64
}

// tpccTally is the benchmark's record of Payment amounts and NewOrder
// counts, per warehouse and per district.
type tpccTally struct {
	Pay      []tally // per warehouse: committed Payment amounts
	DistPay  []tally // per district: committed Payment amounts
	NewOrder []tally // per district: committed NewOrder count
}

// checkTPCC applies TPC-C §3.3.2 consistency condition 1 (W_YTD equals the
// sum of its districts' D_YTD) on deltas from the zero-initialised load,
// and requires each W_YTD and D_YTD delta to equal the committed Payment
// amounts and each district's next order id to have advanced by exactly
// its committed NewOrder count.
func checkTPCC(t tpccTally, initial, final tpccState) error {
	w := len(final.WYTD)
	if w == 0 || len(final.DYTD)%w != 0 || len(t.Pay) != w || len(t.DistPay) != len(final.DYTD) ||
		len(t.NewOrder) != len(final.NextOID) || len(initial.WYTD) != w ||
		len(initial.DYTD) != len(final.DYTD) || len(initial.NextOID) != len(final.NextOID) {
		return fmt.Errorf("tpcc check: mismatched table sizes")
	}
	dpw := len(final.DYTD) / w
	var errs []error
	for wi := 0; wi < w; wi++ {
		wDelta := final.WYTD[wi] - initial.WYTD[wi]
		if !t.Pay[wi].admits(wDelta) {
			errs = append(errs, fmt.Errorf("warehouse %d: W_YTD delta %d, committed payments %d (+%d indeterminate)",
				wi+1, wDelta, t.Pay[wi].Committed, t.Pay[wi].Indeterminate))
		}
		var dSum int64
		for d := 0; d < dpw; d++ {
			i := wi*dpw + d
			dDelta := final.DYTD[i] - initial.DYTD[i]
			dSum += dDelta
			if !t.DistPay[i].admits(dDelta) {
				errs = append(errs, fmt.Errorf("warehouse %d district %d: D_YTD delta %d, committed payments %d (+%d indeterminate)",
					wi+1, d+1, dDelta, t.DistPay[i].Committed, t.DistPay[i].Indeterminate))
			}
			oDelta := final.NextOID[i] - initial.NextOID[i]
			if !t.NewOrder[i].admits(oDelta) {
				errs = append(errs, fmt.Errorf("warehouse %d district %d: next order id advanced %d, committed NewOrders %d (+%d indeterminate)",
					wi+1, d+1, oDelta, t.NewOrder[i].Committed, t.NewOrder[i].Indeterminate))
			}
		}
		if dSum != wDelta {
			errs = append(errs, fmt.Errorf("warehouse %d: W_YTD delta %d != sum of D_YTD deltas %d (TPC-C 3.3.2.1)",
				wi+1, wDelta, dSum))
		}
	}
	return errors.Join(errs...)
}
