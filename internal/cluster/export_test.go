package cluster

// Owner returns the member owning key, or "" on an empty ring. Routing
// walks Successors; the ring tests pin placement through this.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].node
}
