package fabric

import (
	"fmt"
	"math"
	"testing"

	"epnet/internal/sim"
	"epnet/internal/topo"
)

// TestCreditBlockedDigest pins the credit-blocked send path. With input
// buffers of one packet, a sender stalls on credits after every packet,
// so the moment each credit wakes its sender shows up in the delivery
// times. Each cell runs runSharded's workload and pins a SHA-256 over
// every (packet ID, delivery time) plus the delivered count, at 1, 2
// and 4 shards with and without the fail/repair schedule, and serially
// with zero credit delay (a credit that returns in the same instant as
// the arrival that frees it). The last cells hold two packets of buffer
// with a 500 ns credit delay, so a blocked sender often has several
// credits on their way back and must wake at the first of them.
func TestCreditBlockedDigest(t *testing.T) {
	const (
		clean   = "89cd4b1d8e1ca636b6b3cce210860c91f5579073ffd976cbba1bab7b84b6a762"
		faulted = "43ae133c948ef8f5de35639184905caec5d0fc230e482e20a4e43ba24f93be1d"
		slow    = "57ce97a7c8a9829ee0b16fbf673a469c42af40da170d160e95eb3d2fb81e335f"
	)
	cells := []struct {
		shards      int
		faults      bool
		buf         int      // input buffer, in packets
		credit      sim.Time // credit delay
		delivered   int64
		fingerprint string
	}{
		{1, false, 1, 50 * sim.Nanosecond, 1169, clean},
		{2, false, 1, 50 * sim.Nanosecond, 1169, clean},
		{4, false, 1, 50 * sim.Nanosecond, 1169, clean},
		{1, true, 1, 50 * sim.Nanosecond, 1149, faulted},
		{2, true, 1, 50 * sim.Nanosecond, 1149, faulted},
		{4, true, 1, 50 * sim.Nanosecond, 1149, faulted},
		{1, false, 1, 0, 1169, "d8cdc76f603e9e5bde6e346dd9c860aaabe68a71534a9b1be5fa83101881118b"},
		{1, true, 1, 0, 1149, "59399485402b2282f58f36db2e362012292aab03f8dc1d0eb31c19103dfa13fb"},
		{1, true, 2, 500 * sim.Nanosecond, 1149, slow},
		{2, true, 2, 500 * sim.Nanosecond, 1149, slow},
	}
	for _, c := range cells {
		name := fmt.Sprintf("shards=%d/faults=%v/buf=%d/credit=%v", c.shards, c.faults, c.buf, c.credit)
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 42
			cfg.Shards = c.shards
			cfg.InputBufBytes = c.buf * cfg.MaxPacket
			cfg.CreditDelay = c.credit
			fp, _ := runFabric(t, cfg, uniformTraffic, c.faults, nil)
			if got := fp.digest(); fp.deliveredPkts != c.delivered || got != c.fingerprint {
				t.Errorf("delivered %d, digest %s; want %d, %s",
					fp.deliveredPkts, got, c.delivered, c.fingerprint)
			}
		})
	}
}

// TestCreditPoolsRefill checks that every credit pool is exactly full
// once traffic drains, failures or not: a switch-bound channel's pool
// holds InputBufBytes again, and a host downlink's effectively
// unlimited pool (MaxInt64/4, never returned because hosts sink at line
// rate) is short by exactly the bytes it carried.
func TestCreditPoolsRefill(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, faults := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Seed = 42
			cfg.Shards = shards
			fp, n := runFabric(t, cfg, uniformTraffic, faults, nil)
			if fp.deliveredPkts == 0 {
				t.Fatalf("shards=%d faults=%v: nothing delivered", shards, faults)
			}
			for _, c := range n.Channels() {
				want := int64(cfg.InputBufBytes)
				if c.Dst.Kind == topo.KindHost {
					want = math.MaxInt64/4 - c.L.TotalBytes()
				}
				if got := c.Credits(); got != want {
					t.Errorf("shards=%d faults=%v: %s holds %d credits, want %d",
						shards, faults, c.Label(), got, want)
				}
			}
		}
	}
}
