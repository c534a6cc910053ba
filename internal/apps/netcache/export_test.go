package netcache

// CachedValid reports whether key currently has a valid cache entry.
func (d *Dataplane) CachedValid(key uint64) bool {
	e, ok := d.entries[key]
	return ok && e.valid
}
