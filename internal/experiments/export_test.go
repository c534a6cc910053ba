package experiments

// Get returns the point for (flavor, parts).
func (r *Fig8Result) Get(flavor string, parts int) Fig8Point {
	for _, p := range r.Points {
		if p.Flavor == flavor && p.Parts == parts {
			return p
		}
	}
	panic("experiments: missing fig8 point")
}

// Get returns the point for (strategy, hostKind).
func (r *Fig9Result) Get(strategy, hostKind string) Fig9Point {
	for _, p := range r.Points {
		if p.Strategy == strategy && p.HostKind == hostKind {
			return p
		}
	}
	panic("experiments: missing fig9 point")
}

// Get returns the point for a placement name.
func (r *PlacementResult) Get(name string) PlacementPoint {
	for _, p := range r.Points {
		if p.Placement == name {
			return p
		}
	}
	panic("experiments: missing placement point")
}
