package uarch

// CheckpointStats, CheckpointStoreStats and ResetCheckpointStore are what
// remains of the deleted checkpoint store. They exist only because the
// campaign benchmark (campaignbench/campaign.go) calls them between
// campaigns and reports their counters; nothing else uses them.

// CheckpointStats holds the counters the campaign benchmark reads. They are
// always zero.
type CheckpointStats struct {
	Hits            uint64
	Misses          uint64
	MeanResumeDepth float64
}

// CheckpointStoreStats returns zero counters. It exists only because
// campaignbench/campaign.go calls it.
func CheckpointStoreStats() CheckpointStats { return CheckpointStats{} }

// ResetCheckpointStore does nothing. It exists only because
// campaignbench/campaign.go calls it.
func ResetCheckpointStore() {}
