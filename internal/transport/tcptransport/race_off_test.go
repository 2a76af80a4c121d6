//go:build !race

package tcptransport

// raceBuild reports a -race build: sync.Pool drops a random share of its
// Puts there, so allocation counts over pooled buffers mean nothing.
const raceBuild = false
