package jam

// The stock adversary roster. Periodic and reactive are the classic
// constant and sense-then-jam jammers (the periodic-jammer and
// reactive-jammer scenarios); the rest are adaptive strategies and
// combinator-shaped variants. New strategies
// register here (or from any other package's init) and immediately become
// selectable by name everywhere: -jammer on the CLI, scenario overlays,
// netsim jammer nodes and the resilience experiment.
func init() {
	Register("periodic", func() Strategy {
		// A burst every ~25 ms (40-byte bursts under scenario overlays).
		return Periodic{PeriodChips: 50_000, JitterChips: 8_000}
	})
	Register("reactive", func() Strategy {
		// Sense every ~6 ms, under half a 1500-byte frame's air time.
		return Reactive{PeriodChips: 12_000, JitterChips: 2_000}
	})
	Register("preamble", func() Strategy { return Preamble{} })
	Register("sweep", func() Strategy { return Sweep{} })
	Register("learner", func() Strategy { return Learner{} })
	Register("duty", func() Strategy {
		// Half-on/half-off periodic jamming: ~150 ms bursts of the stock
		// periodic jammer separated by ~150 ms of silence.
		return DutyCycle(Periodic{PeriodChips: 50_000, JitterChips: 8_000}, 300_000, 300_000)
	})
	Register("markov", func() Strategy {
		// Markov-modulated periodic jamming with the AntiJam-style burst
		// chain: rare burst starts, sticky bursts, slow recovery.
		return Markov(Periodic{PeriodChips: 50_000, JitterChips: 8_000}, 0.1, 0.8, 0.3)
	})
	Register("targeted", func() Strategy {
		// Preamble-reactive jamming aimed at node 1 — by convention the
		// first victim sender in jammed deployments.
		return Target(Preamble{}, 1)
	})
}
