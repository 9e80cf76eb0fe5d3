package fleet

import (
	"context"
	"sync/atomic"
)

// Transport is one coordinator→worker channel: config push, pair-match
// dispatch, and heartbeat. Implementations must be safe for concurrent
// use; LocalNode, the loopback transport, calls an in-process Worker
// directly.
type Transport interface {
	Configure(ctx context.Context, push ConfigPush) error
	Match(ctx context.Context, req MatchRequest) (*MatchResponse, error)
	Ping(ctx context.Context) (*PingReply, error)
	Close() error
}

// LocalNode is the in-process loopback transport: coordinator calls land
// directly on a Worker in the same address space. Kill makes every
// subsequent call fail with ErrNodeDown — the chaos stand-in for a worker
// dying mid-build — and Revive brings it back.
type LocalNode struct {
	w    *Worker
	dead atomic.Bool
	// sem, when non-nil, serializes Match calls to emulate a node with a
	// fixed executor width (the fig5-fleet measured rows use width 1 so
	// node count is the only parallelism axis).
	sem chan struct{}
}

// NewLocalNode wraps w in a loopback transport. width > 0 bounds the
// node's concurrent Match executions (0 = unbounded).
func NewLocalNode(w *Worker, width int) *LocalNode {
	n := &LocalNode{w: w}
	if width > 0 {
		n.sem = make(chan struct{}, width)
	}
	return n
}

// Worker returns the wrapped in-process worker (for tests and admin).
func (n *LocalNode) Worker() *Worker { return n.w }

// Kill drops the node: every subsequent call fails with ErrNodeDown.
func (n *LocalNode) Kill() { n.dead.Store(true) }

// Revive brings a killed node back. Its worker keeps its catalog and
// cache.
func (n *LocalNode) Revive() { n.dead.Store(false) }

func (n *LocalNode) Configure(_ context.Context, push ConfigPush) error {
	if n.dead.Load() {
		return ErrNodeDown
	}
	return n.w.Configure(push)
}

func (n *LocalNode) Match(ctx context.Context, req MatchRequest) (*MatchResponse, error) {
	if n.dead.Load() {
		return nil, ErrNodeDown
	}
	if n.sem != nil {
		select {
		case n.sem <- struct{}{}:
			defer func() { <-n.sem }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if n.dead.Load() {
		return nil, ErrNodeDown
	}
	return n.w.Match(ctx, req)
}

func (n *LocalNode) Ping(_ context.Context) (*PingReply, error) {
	if n.dead.Load() {
		return nil, ErrNodeDown
	}
	r := n.w.Ping()
	return &r, nil
}

func (n *LocalNode) Close() error { return nil }
