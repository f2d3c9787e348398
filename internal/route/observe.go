package route

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// BackendStatz is one backend's entry in the router's /statz body.
type BackendStatz struct {
	Addr      string `json:"addr"`
	Up        bool   `json:"up"`
	Forwarded int64  `json:"forwarded"`
}

// Statz is the router's /statz body.
type Statz struct {
	UptimeMS        int64          `json:"uptime_ms"`
	Draining        bool           `json:"draining"`
	Accepted        int64          `json:"accepted"`
	Completed       int64          `json:"completed"`
	Inflight        int64          `json:"inflight"`
	Shed            int64          `json:"shed"`
	RefusedDraining int64          `json:"refused_draining"`
	Panics          int64          `json:"panics"`
	HedgesWon       int64          `json:"hedges_won"`
	HedgesLost      int64          `json:"hedges_lost"`
	HedgesSpared    int64          `json:"hedges_spared"`
	RingMoves       int64          `json:"ring_moves"`
	WarmHandoffs    int64          `json:"warm_handoffs"`
	Backends        []BackendStatz `json:"backends"`
}

// StatzSnapshot assembles the /statz body (exported for the cluster soaks
// and aptserved's SIGQUIT dump and drain summary).
func (rt *Router) StatzSnapshot() Statz {
	accepted, completed, shed, refused := rt.adm.Counts()
	z := Statz{
		UptimeMS:        time.Since(rt.start).Milliseconds(),
		Draining:        rt.Draining(),
		Accepted:        accepted,
		Completed:       completed,
		Inflight:        rt.adm.Gauge().Load(),
		Shed:            shed,
		RefusedDraining: refused,
		Panics:          rt.panics.Load(),
		HedgesWon:       rt.hedgeWon.Load(),
		HedgesLost:      rt.hedgeLost.Load(),
		HedgesSpared:    rt.hedgeSpared.Load(),
		RingMoves:       rt.ringMoves.Load(),
		WarmHandoffs:    rt.handoffs.Load(),
	}
	for _, b := range rt.members() {
		z.Backends = append(z.Backends, BackendStatz{Addr: b.addr, Up: b.up.Load(), Forwarded: b.forwarded.Load()})
	}
	return z
}

// members returns the known backends sorted by address.
func (rt *Router) members() []*backend {
	rt.mu.Lock()
	out := make([]*backend, 0, len(rt.backends))
	for _, b := range rt.backends {
		out = append(out, b)
	}
	rt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

func (rt *Router) handleStatz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, rt.StatzSnapshot())
}

// handleMetrics serves Prometheus text exposition: the telemetry registry's
// instruments plus the router-level families below.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.tel.Metrics().WritePrometheus(w) //nolint:errcheck // client hangup
	rt.writePromRouter(w)
}

func (rt *Router) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, rt.tel.Metrics().Snapshot())
}

// writePromRouter renders the router families: lifecycle counters, the
// per-backend up/forwarded series, the hedge outcomes, and the ring-move
// counter the warm handoff increments.
func (rt *Router) writePromRouter(w io.Writer) {
	bw := bufio.NewWriter(w)
	counter := func(name, help string, v int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	accepted, completed, shed, refused := rt.adm.Counts()
	counter("apt_router_accepted_total", "Requests admitted by the router.", accepted)
	counter("apt_router_completed_total", "Requests answered through the router.", completed)
	counter("apt_router_shed_total", "Requests shed with 429 by the router's own admission control.", shed)
	counter("apt_router_refused_draining_total", "Requests refused because the router was draining.", refused)
	counter("apt_router_panics_total", "Router handler panics isolated into 500s.", rt.panics.Load())
	counter("apt_ring_moves_total", "Shards whose owner changed across ring membership changes.", rt.ringMoves.Load())
	counter("apt_ring_warm_handoffs_total", "Ring moves whose warm state was shipped to the gaining backend.", rt.handoffs.Load())

	fmt.Fprintf(bw, "# HELP apt_router_inflight Requests admitted and not yet answered.\n# TYPE apt_router_inflight gauge\napt_router_inflight %d\n",
		rt.adm.Gauge().Load())

	fmt.Fprintf(bw, "# HELP apt_hedge_total Hedging outcomes: won (hedge answered first), lost (primary answered after the hedge fired), spared (no hedge needed).\n# TYPE apt_hedge_total counter\n")
	for _, o := range []struct {
		outcome string
		v       int64
	}{
		{"won", rt.hedgeWon.Load()},
		{"lost", rt.hedgeLost.Load()},
		{"spared", rt.hedgeSpared.Load()},
	} {
		fmt.Fprintf(bw, "apt_hedge_total{outcome=%q} %d\n", o.outcome, o.v)
	}

	members := rt.members()
	fmt.Fprintf(bw, "# HELP apt_backend_up Whether the backend's last health probe answered 200.\n# TYPE apt_backend_up gauge\n")
	for _, b := range members {
		up := 0
		if b.up.Load() {
			up = 1
		}
		fmt.Fprintf(bw, "apt_backend_up{backend=\"%s\"} %d\n", telemetry.PromEscapeLabel(b.addr), up)
	}
	fmt.Fprintf(bw, "# HELP apt_backend_forwarded_total Requests forwarded to the backend (hedges and failovers included).\n# TYPE apt_backend_forwarded_total counter\n")
	for _, b := range members {
		fmt.Fprintf(bw, "apt_backend_forwarded_total{backend=\"%s\"} %d\n", telemetry.PromEscapeLabel(b.addr), b.forwarded.Load())
	}
	bw.Flush() //nolint:errcheck // client hangup
}
