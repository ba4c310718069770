package server

import "context"

// workerPool bounds how many analyses run at once. HTTP handlers block in
// acquire until a slot frees (or the client gives up), so a burst of
// submissions queues in cheap goroutines instead of oversubscribing the
// analysis core, whose own Workers knob already saturates the host per run.
type workerPool struct {
	sem chan struct{}
}

func newWorkerPool(slots int) *workerPool {
	if slots <= 0 {
		slots = 1
	}
	return &workerPool{sem: make(chan struct{}, slots)}
}

// acquire blocks until a slot is free or ctx is done.
func (p *workerPool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *workerPool) release() { <-p.sem }
