// Package metrics is spear-vet golden-test input for the metrics check,
// registering against the real obs.Registry API.
package metrics

import "spear/internal/obs"

// Register registers each name once: names are not checked, only sites.
func Register(r *obs.Registry) {
	r.Counter("spear_good_events_total", "well-formed counter")
	r.Counter("spear_bad_events", "counter missing its suffix")
	r.Gauge("spear_queue_depth", "well-formed gauge")
	r.Gauge("SpearBadName", "wrong naming scheme")
	r.Float("spear-bad-name", "dashes instead of underscores")
	r.Timer("spear_step_seconds", "well-formed timer")
}

// RegisterAgain re-registers a name from a second call site; obs silently
// returns the first metric, which is almost always an accident.
func RegisterAgain(r *obs.Registry) {
	r.Counter("spear_good_events_total", "same name, different site") // want "already registered"
}

// RegisterDynamic builds the name at runtime: non-literal names are out of
// the check's scope.
func RegisterDynamic(r *obs.Registry, name string) {
	r.Gauge(name, "dynamic name")
}
