package dora

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plp/internal/cs"
	"plp/internal/lock"
)

// fn adapts a closure to Runner for these tests.
type fn func(w *Worker)

func (f fn) RunTask(w *Worker) { f(w) }

// submit enqueues one task on w as a batch of one.
func submit(w *Worker, r Runner) error {
	ts := GetTasks()
	*ts = append(*ts, r)
	err := w.SubmitBatch(ts)
	if err != nil {
		PutTasks(ts)
	}
	return err
}

func TestTasksExecuteOnOwningWorker(t *testing.T) {
	p := NewPool(4, 16, &cs.Stats{})
	p.Start()
	defer p.Stop()

	var wg sync.WaitGroup
	var wrongWorker atomic.Int32
	for i := 0; i < 100; i++ {
		target := i % 4
		wg.Add(1)
		if err := submit(p.Worker(target), fn(func(w *Worker) {
			if w.ID() != target {
				wrongWorker.Add(1)
			}
			wg.Done()
		})); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if wrongWorker.Load() != 0 {
		t.Fatal("tasks executed on the wrong worker")
	}
	if p.TotalStats().Executed != 100 {
		t.Fatalf("executed=%d", p.TotalStats().Executed)
	}
}

func TestWorkerSerializesItsTasks(t *testing.T) {
	p := NewPool(1, 64, &cs.Stats{})
	p.Start()
	defer p.Stop()
	w := p.Worker(0)

	counter := 0 // no synchronization: the worker must serialize access
	var wg sync.WaitGroup
	for i := 0; i < 1000; i++ {
		wg.Add(1)
		if err := submit(w, fn(func(_ *Worker) {
			counter++
			wg.Done()
		})); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if counter != 1000 {
		t.Fatalf("worker did not serialize its tasks: %d", counter)
	}
}

func TestSystemQueueHasPriority(t *testing.T) {
	p := NewPool(1, 1024, &cs.Stats{})
	w := p.Worker(0)
	// Before starting the worker, enqueue many input tasks and one system
	// task; once started, the system task must run before most of the
	// input backlog.
	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		_ = submit(w, fn(func(_ *Worker) {
			mu.Lock()
			order = append(order, "input")
			mu.Unlock()
			wg.Done()
		}))
	}
	wg.Add(1)
	_ = w.SubmitSystem(fn(func(_ *Worker) {
		mu.Lock()
		order = append(order, "system")
		mu.Unlock()
		wg.Done()
	}))
	p.Start()
	defer p.Stop()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, s := range order {
		if s == "system" {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 1 {
		t.Fatalf("system task ran at position %d, expected immediately", pos)
	}
}

func TestQuiesceStopsAllWorkers(t *testing.T) {
	p := NewPool(4, 64, &cs.Stats{})
	p.Start()
	defer p.Stop()

	var running atomic.Int32
	stop := make(chan struct{})
	// Keep workers busy with a stream of tasks.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				done := make(chan struct{})
				if err := submit(p.Worker(i), fn(func(_ *Worker) {
					running.Add(1)
					time.Sleep(100 * time.Microsecond)
					running.Add(-1)
					close(done)
				})); err != nil {
					return
				}
				<-done
			}
		}(i)
	}

	quiesced := false
	if err := p.Quiesce(func() {
		if running.Load() != 0 {
			t.Error("tasks still running during quiesce")
		}
		quiesced = true
	}); err != nil {
		t.Fatal(err)
	}
	if !quiesced {
		t.Fatal("quiesce callback not run")
	}
	close(stop)
	wg.Wait()
}

func TestStopDrainsQueues(t *testing.T) {
	p := NewPool(2, 256, &cs.Stats{})
	p.Start()
	var executed atomic.Int32
	for i := 0; i < 200; i++ {
		if err := submit(p.Worker(i), fn(func(_ *Worker) { executed.Add(1) })); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop()
	if executed.Load() != 200 {
		t.Fatalf("stop lost tasks: %d", executed.Load())
	}
	// Submitting after stop fails rather than hanging.
	if err := submit(p.Worker(0), fn(func(_ *Worker) {})); err == nil {
		t.Fatal("submit after stop should fail")
	}
	p.Stop() // idempotent
}

func TestWorkerLocalLocks(t *testing.T) {
	p := NewPool(1, 8, &cs.Stats{})
	p.Start()
	defer p.Stop()
	var ok bool
	var wg sync.WaitGroup
	wg.Add(1)
	_ = submit(p.Worker(0), fn(func(w *Worker) {
		defer wg.Done()
		n := lock.KeyName(1, 5)
		ok = w.Locks().TryAcquire(1, n, lock.X)
		w.Locks().ReleaseTxn(1)
	}))
	wg.Wait()
	if !ok {
		t.Fatal("worker-local lock acquisition failed")
	}
}

func TestMessagePassingCSRecorded(t *testing.T) {
	cstats := &cs.Stats{}
	p := NewPool(2, 8, cstats)
	p.Start()
	defer p.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		_ = submit(p.Worker(i), fn(func(_ *Worker) { wg.Done() }))
	}
	wg.Wait()
	snap := cstats.Snapshot()
	if snap.Entered[cs.MessagePassing] != 10 {
		t.Fatalf("message passing CS=%d", snap.Entered[cs.MessagePassing])
	}
	if snap.ByClass[cs.Fixed] < 10 {
		t.Fatal("message passing should be fixed-contention")
	}
}

func TestQueueWaitAccounted(t *testing.T) {
	p := NewPool(1, 64, &cs.Stats{})
	w := p.Worker(0)
	var wg sync.WaitGroup
	wg.Add(1)
	_ = submit(w, fn(func(_ *Worker) {
		time.Sleep(5 * time.Millisecond)
		wg.Done()
	}))
	wg.Add(1)
	_ = submit(w, fn(func(_ *Worker) { wg.Done() }))
	p.Start()
	defer p.Stop()
	wg.Wait()
	if w.Stats().QueueWait <= 0 {
		t.Fatal("queue wait not recorded")
	}
	if w.Stats().Busy <= 0 {
		t.Fatal("busy time not recorded")
	}
}

// countingRunner implements Runner; batched hot-path tasks use pooled
// runners like this instead of closures.
type countingRunner struct {
	order  *[]int
	mu     *sync.Mutex
	id     int
	worker int
}

func (r *countingRunner) RunTask(w *Worker) {
	r.mu.Lock()
	*r.order = append(*r.order, r.id)
	r.mu.Unlock()
	r.worker = w.ID()
}

func TestSubmitBatchRunsInOrder(t *testing.T) {
	cstats := &cs.Stats{}
	p := NewPool(2, 16, cstats)
	p.Start()
	defer p.Stop()
	w := p.Worker(1)

	before := cstats.Snapshot().Entered[cs.MessagePassing]
	var mu sync.Mutex
	var order []int
	runners := make([]countingRunner, 8)
	ts := GetTasks()
	if len(*ts) != 0 {
		t.Fatal("GetTasks returned a non-empty slice")
	}
	for i := range runners {
		runners[i] = countingRunner{order: &order, mu: &mu, id: i}
		*ts = append(*ts, &runners[i])
	}
	var wg sync.WaitGroup
	wg.Add(1)
	*ts = append(*ts, fn(func(_ *Worker) { wg.Done() }))
	if err := w.SubmitBatch(ts); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(runners) {
		t.Fatalf("executed %d of %d batched tasks", len(order), len(runners))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("batch executed out of order: %v", order)
		}
	}
	for i := range runners {
		if runners[i].worker != 1 {
			t.Fatalf("batched task %d ran on worker %d", i, runners[i].worker)
		}
	}
	// The whole batch is ONE message-passing critical section.
	if got := cstats.Snapshot().Entered[cs.MessagePassing] - before; got != 1 {
		t.Fatalf("batch recorded %d message-passing critical sections, want 1", got)
	}
	if st := w.Stats(); st.Executed != uint64(len(runners)+1) {
		t.Fatalf("executed=%d, want %d (every batched task counted)", st.Executed, len(runners)+1)
	}
}

func TestSubmitBatchAfterStopKeepsOwnership(t *testing.T) {
	p := NewPool(1, 8, &cs.Stats{})
	p.Start()
	p.Stop()
	ts := GetTasks()
	*ts = append(*ts, fn(func(_ *Worker) { t.Error("task ran after stop") }))
	if err := p.Worker(0).SubmitBatch(ts); err == nil {
		t.Fatal("SubmitBatch after stop should fail")
	}
	// Ownership stayed with us: the tasks are still inspectable.
	if len(*ts) != 1 || (*ts)[0] == nil {
		t.Fatal("failed SubmitBatch mutated the caller's slice")
	}
	PutTasks(ts)
}

func TestAddExecutedCreditsExtraUnits(t *testing.T) {
	p := NewPool(1, 8, &cs.Stats{})
	p.Start()
	defer p.Stop()
	w := p.Worker(0)
	var wg sync.WaitGroup
	wg.Add(2)
	// A multi-unit task (a whole single-site transaction) credits the
	// actions it ran beyond the one the worker counts per task; a plain
	// task counts 1.
	_ = submit(w, fn(func(w *Worker) { w.AddExecuted(4); wg.Done() }))
	_ = submit(w, fn(func(_ *Worker) { wg.Done() }))
	wg.Wait()
	if got := w.Stats().Executed; got != 6 {
		t.Fatalf("Executed=%d, want 6 (1+4 credited, plus 1 plain)", got)
	}
}

func TestSubmitEmptyBatch(t *testing.T) {
	p := NewPool(1, 8, &cs.Stats{})
	p.Start()
	defer p.Stop()
	if err := p.Worker(0).SubmitBatch(GetTasks()); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestQuiesceWorkersPartial(t *testing.T) {
	p := NewPool(4, 64, &cs.Stats{})
	p.Start()
	defer p.Stop()

	// While workers 0 and 1 are parked, workers 2 and 3 must keep running.
	executed := make(chan int, 2)
	err := p.QuiesceWorkers([]int{0, 1, 1, -5, 99}, func() {
		var wg sync.WaitGroup
		for _, id := range []int{2, 3} {
			wg.Add(1)
			if err := submit(p.Worker(id), fn(func(w *Worker) {
				executed <- w.ID()
				wg.Done()
			})); err != nil {
				t.Errorf("submit to unquiesced worker %d: %v", id, err)
				wg.Done()
			}
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("tasks on unquiesced workers did not run during the quiesce")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	close(executed)
	seen := map[int]bool{}
	for id := range executed {
		seen[id] = true
	}
	if !seen[2] || !seen[3] {
		t.Fatalf("workers outside the quiesce set did not execute: %v", seen)
	}
}

func TestConcurrentQuiescesDoNotDeadlock(t *testing.T) {
	p := NewPool(4, 64, &cs.Stats{})
	p.Start()
	defer p.Stop()

	// Overlapping quiesce sets from many goroutines: the pool-level quiesce
	// mutex must serialize them (interleaved barrier submissions would
	// deadlock).
	var wg sync.WaitGroup
	sets := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 1, 2, 3}}
	for round := 0; round < 20; round++ {
		for _, ids := range sets {
			wg.Add(1)
			ids := ids
			go func() {
				defer wg.Done()
				_ = p.QuiesceWorkers(ids, func() {})
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent quiesces deadlocked")
	}
}

// TestExecutedCountedBeforeCompletionSignal pins the ordering callers rely
// on: a task that signals its completion and then keeps running (blocked
// on hold here) is already counted, both as a single task and inside a
// batch, so a reader woken by the signal never sees a stale Executed.
func TestExecutedCountedBeforeCompletionSignal(t *testing.T) {
	p := NewPool(1, 8, &cs.Stats{})
	p.Start()
	defer p.Stop()
	w := p.Worker(0)

	done := make(chan struct{})
	hold := make(chan struct{})
	// Registered after the deferred Stop, so it runs first: a failing
	// check must not leave the worker parked on hold while Stop waits.
	defer close(hold)
	task := fn(func(_ *Worker) {
		done <- struct{}{}
		<-hold
	})
	if err := submit(w, task); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := w.Stats().Executed; got != 1 {
		t.Fatalf("single task: Executed=%d after its completion signal, want 1", got)
	}
	hold <- struct{}{}

	ts := GetTasks()
	*ts = append(*ts, task, fn(func(_ *Worker) {}))
	if err := w.SubmitBatch(ts); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := w.Stats().Executed; got != 3 {
		t.Fatalf("batch: Executed=%d after the first task's completion signal, want 3", got)
	}
}
