package serve

import (
	"errors"
	"sync/atomic"
)

// ErrChaosReject fails a build request at admission while build-tier fault
// injection is on.
var ErrChaosReject = errors.New("serve: build rejected (chaos injection)")

// chaos is the service's fault-injection state. It lives on its own struct
// so the production Config stays free of test-only knobs.
type chaos struct {
	rejectBuilds atomic.Bool
}

// SetChaosRejectBuilds toggles build-tier fault injection: while on, every
// new Build fails with ErrChaosReject before resolving its cohort or taking
// a slot, and is counted under serve.reject_chaos. Soak runs use it to
// verify the serving tier keeps answering queries while its rebuild pipeline
// is down — the partial-outage mode a real coordinator crash produces.
// In-flight builds are unaffected.
func (s *Service) SetChaosRejectBuilds(on bool) {
	s.chaos.rejectBuilds.Store(on)
}
