//go:build !linux

package main

import "time"

// cpuTime is unavailable off Linux; cpu_ms_per_scan then reads 0.
func cpuTime() time.Duration { return 0 }

func fsType(string) string { return "unknown" }
