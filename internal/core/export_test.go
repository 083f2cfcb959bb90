package core

// SetFault injects fault ft into both ends of the bridge, so the §IV-A
// mutation suite covers the bridge's copy of the data path too. It exists
// in test binaries only; models cannot inject faults into a bridge.
func (f *ShardedFIFO[T]) SetFault(ft Fault) {
	f.w.end.fault = ft
	f.r.end.fault = ft
}
