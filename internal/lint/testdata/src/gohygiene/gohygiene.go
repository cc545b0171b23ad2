// Golden fixture of the goroutine-hygiene check (deterministic packages
// only): every go statement needs a WaitGroup or channel join in the
// spawning function or an explicit //spear:detached waiver.
package gohygiene

import "sync"

func fanOutJoined(n int) int {
	var wg sync.WaitGroup
	out := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = i * i
		}(i)
	}
	wg.Wait()
	total := 0
	for _, v := range out {
		total += v
	}
	return total
}

func work() {}

func fireAndForget() {
	go work() // want "no WaitGroup or channel join"
}

func audited() {
	//spear:detached
	go work()
}

func channelJoined() {
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}

var (
	_ = fanOutJoined
	_ = fireAndForget
	_ = audited
	_ = channelJoined
)
