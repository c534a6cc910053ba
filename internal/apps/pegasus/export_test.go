package pegasus

// Owners returns the replica indices currently holding key (nil if the key
// is not tracked).
func (d *Dataplane) Owners(key uint64) []int {
	if e, ok := d.dir[key]; ok {
		return append([]int(nil), e.owners...)
	}
	return nil
}
