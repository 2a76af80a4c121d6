//go:build race

package core

// raceBuild reports a -race build: sync.Pool drops a random share of its
// Puts there, so allocation counts over pooled buffers mean nothing.
const raceBuild = true
