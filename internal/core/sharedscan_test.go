package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"doppiodb/internal/memmodel"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// newSharedSystem builds a coalescing system with its own telemetry
// registry, so the leader/follower ledger assertions see absolute counts.
func newSharedSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(Options{
		RegionBytes: 1 << 30,
		SharedScans: true,
		Telemetry:   telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSharedExecCoalesces pins the coalescer's contract deterministically:
// the leader registers its key before running, so any query arriving while
// the leader is in flight is guaranteed to become a follower. The leader's
// run closure blocks on a channel until all followers have queued up.
func TestSharedExecCoalesces(t *testing.T) {
	s := newSharedSystem(t)
	key := scanKey{pattern: "p"}
	started := make(chan struct{})
	release := make(chan struct{})
	leaderRes := &Result{MatchCount: 7, HW: HWStats{
		JobLedger: memmodel.JobLedger{Bytes: 4096, Grants: 3}, Jobs: 4}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := s.sharedExec(context.Background(), key, telemetry.StartSpan("q"),
			func() (*Result, error) {
				close(started) // key is registered before run() is called
				<-release
				return leaderRes, nil
			})
		if err != nil || res != leaderRes {
			t.Errorf("leader: res=%v err=%v", res, err)
		}
	}()
	<-started

	const followers = 3
	results := make([]*Result, followers)
	spans := make([]*telemetry.Span, followers)
	for i := 0; i < followers; i++ {
		spans[i] = telemetry.StartSpan("q")
	}
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.sharedExec(context.Background(), key, spans[i],
				func() (*Result, error) {
					t.Error("follower ran its own scan")
					return nil, nil
				})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	// A follower opens its shared-scan-await span only after it has found
	// the in-flight leader, so once every span shows that child, all three
	// hold the leader's done channel — releasing the leader cannot race
	// them into becoming leaders themselves.
	for i := 0; i < followers; i++ {
		for spans[i].Find("shared-scan-await") == nil {
			runtime.Gosched()
		}
	}
	close(release)
	wg.Wait()

	for i, res := range results {
		if res == nil {
			t.Fatalf("follower %d got no result", i)
		}
		if !res.Shared {
			t.Errorf("follower %d not marked shared", i)
		}
		if res.MatchCount != leaderRes.MatchCount {
			t.Errorf("follower %d count %d != leader %d", i, res.MatchCount, leaderRes.MatchCount)
		}
		// The QPI bytes crossed once, for the leader: follower attribution
		// stays zero so fleet-wide traffic sums stay truthful.
		if res.HW.Bytes != 0 || res.HW.Grants != 0 || res.HW.Jobs != 0 {
			t.Errorf("follower %d carries hardware traffic: %+v", i, res.HW)
		}
	}
	snap := s.Tel.Snapshot()
	if snap.Counter("core.sharedscan.leaders") != 1 ||
		snap.Counter("core.sharedscan.followers") != int64(followers) {
		t.Errorf("ledger: leaders=%d followers=%d, want 1/%d",
			snap.Counter("core.sharedscan.leaders"),
			snap.Counter("core.sharedscan.followers"), followers)
	}
}

// TestSharedExecFollowerRetriesOnLeaderError: a leader's failure may be its
// own (cancellation, deadline), so followers must not inherit it — one of
// them retries as the new leader.
func TestSharedExecFollowerRetriesOnLeaderError(t *testing.T) {
	s := newSharedSystem(t)
	key := scanKey{pattern: "p"}
	started := make(chan struct{})
	release := make(chan struct{})
	bang := errors.New("leader-local failure")
	good := &Result{MatchCount: 3}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := s.sharedExec(context.Background(), key, telemetry.StartSpan("q"),
			func() (*Result, error) {
				close(started)
				<-release
				return nil, bang
			})
		if !errors.Is(err, bang) || res != nil {
			t.Errorf("leader: res=%v err=%v", res, err)
		}
	}()
	<-started

	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := s.sharedExec(context.Background(), key, telemetry.StartSpan("q"),
			func() (*Result, error) { return good, nil })
		if err != nil || res != good {
			t.Errorf("retrying follower: res=%v err=%v", res, err)
		}
		if res != nil && res.Shared {
			t.Error("new leader's result wrongly marked shared")
		}
	}()
	close(release)
	wg.Wait()
	<-done

	snap := s.Tel.Snapshot()
	if snap.Counter("core.sharedscan.leaders") != 2 || snap.Counter("core.sharedscan.followers") != 0 {
		t.Errorf("ledger: leaders=%d followers=%d, want 2/0",
			snap.Counter("core.sharedscan.leaders"),
			snap.Counter("core.sharedscan.followers"))
	}
}

// TestSharedScanEndToEnd drives N barrier-started identical queries through
// the full Exec path and checks the dispatch ledger: every query is either
// a leader or a follower, the dispatched job-group delta equals the leader
// count, and every result reports the same match count.
func TestSharedScanEndToEnd(t *testing.T) {
	s := newSharedSystem(t)
	rows, hits := workload.NewGenerator(33, 64).Table(20_000, workload.HitQ2, 0.2)
	tbl, err := s.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		t.Fatal(err)
	}
	col, err := tbl.Column("address_string")
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	groupsBefore := s.HAL.GroupsDispatched()
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = s.Exec(context.Background(), col.Strs, workload.Q2, token.Options{})
		}(i)
	}
	close(start)
	wg.Wait()

	shared := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i].MatchCount != hits {
			t.Errorf("query %d count %d, want %d", i, results[i].MatchCount, hits)
		}
		if results[i].Shared {
			shared++
		}
	}
	snap := s.Tel.Snapshot()
	leaders := snap.Counter("core.sharedscan.leaders")
	followers := snap.Counter("core.sharedscan.followers")
	if leaders+followers != n {
		t.Errorf("ledger does not balance: leaders=%d followers=%d queries=%d",
			leaders, followers, n)
	}
	if int64(shared) != followers {
		t.Errorf("shared results %d != followers counter %d", shared, followers)
	}
	groups := s.HAL.GroupsDispatched() - groupsBefore
	if groups != leaders {
		t.Errorf("dispatched groups %d != leaders %d", groups, leaders)
	}
	// Disabled coalescing (the default) must dispatch one group per query:
	// the same barrier on a plain system shows the contrast the experiment
	// gate relies on.
	s2 := newSystem(t)
	tbl2, err := s2.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		t.Fatal(err)
	}
	col2, err := tbl2.Column("address_string")
	if err != nil {
		t.Fatal(err)
	}
	before2 := s2.HAL.GroupsDispatched()
	var wg2 sync.WaitGroup
	start2 := make(chan struct{})
	for i := 0; i < n; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			<-start2
			if _, err := s2.Exec(context.Background(), col2.Strs, workload.Q2, token.Options{}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start2)
	wg2.Wait()
	if got := s2.HAL.GroupsDispatched() - before2; got != n {
		t.Errorf("uncoalesced system dispatched %d groups for %d queries", got, n)
	}
}
