package mapserve

// Chaos hooks: deliberate fault injection for soak testing. A chaos shed
// takes the same admission exit as a real overload, so a soak run exercises
// exactly the code a production incident would. (Soak's hot-swap chaos needs
// no hook: it rebuilds the cohort and publishes through Registry.Publish.)

// SetChaosShed toggles admission-level fault injection: while on, every new
// query is shed with ErrOverloaded before reaching the queue. Chaos sheds
// are counted under mapserve.shed_chaos (distinct from the organic
// mapserve.shed_queue) and their traces carry shed=chaos, so soak
// assertions can hold organic shedding to a ceiling while storms rage.
// In-flight queries are unaffected.
func (s *Service) SetChaosShed(on bool) {
	s.chaosShed.Store(on)
}

// ChaosShedding reports whether admission fault injection is on.
func (s *Service) ChaosShedding() bool { return s.chaosShed.Load() }
