package monitor

import (
	"fmt"
	"sort"
	"sync"

	"xcbc/internal/sim"
)

// Alerting turns the aggregator's time series into the notifications an
// administrator actually reads: threshold rules on any metric and host-down
// detection (a host that stops reporting, Ganglia's grey-host state).

// Rule is a threshold alert: fire when metric rises above threshold and
// clear when it comes back.
type Rule struct {
	Name      string
	Metric    string
	Threshold float64
}

// Alert is one alert transition.
type Alert struct {
	At     sim.Time
	Host   string
	Rule   string
	Firing bool // true = raised, false = cleared
	Detail string
}

func (a Alert) String() string {
	state := "RAISED"
	if !a.Firing {
		state = "cleared"
	}
	return fmt.Sprintf("%v %s %s %s: %s", a.At, state, a.Host, a.Rule, a.Detail)
}

// AlertManager evaluates rules against an aggregator after each poll.
type AlertManager struct {
	mu    sync.Mutex
	agg   *Aggregator
	rules []rule

	// active is nil until first written: a healthy cluster never raises an
	// alert.
	active map[alertKey]bool // firing alerts
	log    []Alert
}

// rule is a Rule with its metric resolved to a row index.
type rule struct {
	Rule
	metric int
}

// downAfter is how many poll intervals of silence mark a host down.
const downAfter = 3

// alertKey names one firing alert; Active renders it as "host/rule".
type alertKey struct{ host, rule string }

// NewAlertManager creates an alert manager over an aggregator, evaluating
// the given threshold rules. A rule on a metric no gmond reports never
// fires.
func NewAlertManager(agg *Aggregator, rules ...Rule) *AlertManager {
	am := &AlertManager{agg: agg, rules: make([]rule, 0, len(rules))}
	for _, r := range rules {
		if m := metricIndex(r.Metric); m >= 0 {
			am.rules = append(am.rules, rule{r, m})
		}
	}
	return am
}

// Evaluate checks all rules against each host's latest row, in one pass
// under the aggregator's lock. interval is the polling period (for
// host-down math). Call after each Poll, or schedule alongside the
// aggregator.
func (am *AlertManager) Evaluate(now sim.Time, interval sim.Time) {
	am.mu.Lock()
	defer am.mu.Unlock()
	am.agg.mu.Lock()
	defer am.agg.mu.Unlock()
	am.agg.latest(func(host string, r row) {
		for _, rl := range am.rules {
			if r.At != now {
				break // a stale row is host-down's business, not a threshold's
			}
			key := alertKey{host, rl.Name}
			value := r.Values[rl.metric]
			firing := value > rl.Threshold
			if firing && !am.active[key] {
				am.raise(key)
				am.log = append(am.log, Alert{At: now, Host: host, Rule: rl.Name, Firing: true,
					Detail: fmt.Sprintf("%s = %.2f > %.2f", rl.Metric, value, rl.Threshold)})
			}
			if !firing && am.active[key] {
				delete(am.active, key)
				am.log = append(am.log, Alert{At: now, Host: host, Rule: rl.Name, Firing: false,
					Detail: fmt.Sprintf("%s = %.2f", rl.Metric, value)})
			}
		}
		// Host-down rule: a host's freshness is its latest row's time.
		key := alertKey{host, "host-down"}
		silent := now-r.At >= downAfter*interval
		if silent && !am.active[key] {
			am.raise(key)
			am.log = append(am.log, Alert{At: now, Host: host, Rule: "host-down", Firing: true,
				Detail: fmt.Sprintf("no samples for %v", (now - r.At).Duration())})
		}
		if !silent && am.active[key] {
			delete(am.active, key)
			am.log = append(am.log, Alert{At: now, Host: host, Rule: "host-down", Firing: false,
				Detail: "reporting again"})
		}
	})
}

// raise marks an alert firing. am.mu held.
func (am *AlertManager) raise(key alertKey) {
	if am.active == nil {
		am.active = make(map[alertKey]bool)
	}
	am.active[key] = true
}

// Active returns currently firing alert keys, sorted; empty, never nil.
func (am *AlertManager) Active() []string {
	am.mu.Lock()
	defer am.mu.Unlock()
	out := make([]string, 0, len(am.active))
	for k := range am.active {
		out = append(out, k.host+"/"+k.rule)
	}
	sort.Strings(out)
	return out
}

// Log returns the alert transition history.
func (am *AlertManager) Log() []Alert {
	am.mu.Lock()
	defer am.mu.Unlock()
	return append([]Alert(nil), am.log...)
}
