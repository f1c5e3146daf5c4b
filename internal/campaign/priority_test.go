package campaign

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackgroundLeavesHeadroom: background work on a width-N pool may
// hold at most N-1 slots, so an interactive job always finds capacity.
func TestBackgroundLeavesHeadroom(t *testing.T) {
	const workers = 4
	e := New(workers)

	var (
		mu      sync.Mutex
		held    int
		maxHeld int
	)
	release := make(chan struct{})
	bgJobs := make([]Job[int], 2*workers)
	for i := range bgJobs {
		bgJobs[i] = func(ctx context.Context) (int, error) {
			mu.Lock()
			held++
			if held > maxHeld {
				maxHeld = held
			}
			mu.Unlock()
			<-release
			mu.Lock()
			held--
			mu.Unlock()
			return 0, nil
		}
	}

	done := make(chan struct{})
	go func() {
		AllAt(context.Background(), e, Background, bgJobs)
		close(done)
	}()

	// Wait for the background campaign to saturate its ticket cap.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		h := held
		mu.Unlock()
		if h == workers-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("background campaign held %d slots, want %d", h, workers-1)
		case <-time.After(time.Millisecond):
		}
	}

	// An interactive job must run to completion while every background
	// ticket is held.
	ictx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	outs := All(ictx, e, []Job[int]{func(ctx context.Context) (int, error) { return 42, nil }})
	if outs[0].Err != nil || outs[0].Value != 42 {
		t.Fatalf("interactive job under background load: %+v", outs[0])
	}

	close(release)
	<-done
	mu.Lock()
	if maxHeld > workers-1 {
		t.Fatalf("background held %d slots concurrently, cap is %d", maxHeld, workers-1)
	}
	mu.Unlock()
}

// TestBackgroundYieldsToInteractive: with interactive acquirers waiting,
// freed slots go to them before any parked background work.
func TestBackgroundYieldsToInteractive(t *testing.T) {
	e := New(1) // single slot: bg ticket cap is max(1, 0) = 1

	blockBg := make(chan struct{})
	bgStarted := make(chan struct{})
	var bgSecond atomic.Bool
	bgJobs := []Job[int]{
		func(ctx context.Context) (int, error) { close(bgStarted); <-blockBg; return 0, nil },
		func(ctx context.Context) (int, error) { bgSecond.Store(true); return 0, nil },
	}
	bgDone := make(chan struct{})
	go func() {
		AllAt(context.Background(), e, Background, bgJobs)
		close(bgDone)
	}()
	<-bgStarted

	// Interactive waiter queues up while the background cell holds the
	// only slot.
	var interactiveRan atomic.Bool
	iDone := make(chan struct{})
	go func() {
		All(context.Background(), e, []Job[int]{func(ctx context.Context) (int, error) {
			interactiveRan.Store(true)
			if bgSecond.Load() {
				t.Error("second background cell ran before the waiting interactive job")
			}
			return 0, nil
		}})
		close(iDone)
	}()

	// Give the interactive acquirer time to park on the semaphore, then
	// free the slot: the interactive job must win it.
	time.Sleep(10 * time.Millisecond)
	close(blockBg)

	select {
	case <-iDone:
	case <-time.After(5 * time.Second):
		t.Fatal("interactive job starved behind background campaign")
	}
	<-bgDone
	if !interactiveRan.Load() {
		t.Fatal("interactive job never ran")
	}
}

// TestBackgroundCancellationReleasesTickets: cancelling a background
// campaign mid-acquire leaks neither slots nor tickets.
func TestBackgroundCancellationReleasesTickets(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())

	started := make(chan struct{}, 1)
	block := make(chan struct{})
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-block:
			case <-ctx.Done():
			}
			return 0, nil
		}
	}
	done := make(chan struct{})
	go func() {
		outs := AllAt(ctx, e, Background, jobs)
		for i, o := range outs {
			if o.Err != nil && o.Err != context.Canceled {
				t.Errorf("cell %d: unexpected error %v", i, o.Err)
			}
		}
		close(done)
	}()
	<-started
	cancel()
	close(block)
	<-done

	// All capacity must be back: a fresh background campaign of full
	// ticket width completes.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	fresh := make([]Job[int], 4)
	for i := range fresh {
		fresh[i] = func(ctx context.Context) (int, error) { return 1, nil }
	}
	outs := AllAt(ctx2, e, Background, fresh)
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outs))
	}
	for i, o := range outs {
		if o.Err != nil || o.Value != 1 {
			t.Fatalf("post-cancel background campaign: cell %d = (%d, %v), want (1, nil)", i, o.Value, o.Err)
		}
	}
}
