// Package cycle is the recursive-call fixture of the ctxpoll check: the poll
// sits behind a call cycle, so a propagation that settles a cycle member's
// verdict while its partner is still being visited gets the loop wrong in
// some runs. Nothing here may be reported.
package cycle

import "context"

// ScheduleContext loops over b, which reaches the poll in c through a.
func ScheduleContext(ctx context.Context, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += b(ctx, i)
	}
	return total
}

// a recurses into b, then polls through c.
func a(ctx context.Context, n int) int {
	if n > 0 {
		return b(ctx, n-1)
	}
	return c(ctx)
}

// b closes the cycle.
func b(ctx context.Context, n int) int { return a(ctx, n) }

// c is the only direct poll.
func c(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return 1
}
