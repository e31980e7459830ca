//go:build !linux

package main

import "time"

// preciseSleep falls back to the runtime's timers where there is no
// timerfd; see sleep_linux.go for what that costs.
func preciseSleep(d time.Duration) { time.Sleep(d) }
