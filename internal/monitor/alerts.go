package monitor

import (
	"fmt"
	"slices"
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
	rules []Rule
	// DownAfter is how many poll intervals of silence mark a host down;
	// default 3.
	DownAfter int

	// Both maps are nil until first written: a healthy cluster never raises
	// an alert, and one nobody polls never records a sighting.
	active   map[alertKey]bool // firing alerts
	lastSeen map[string]sim.Time
	log      []Alert
}

// alertKey names one firing alert; Active renders it as "host/rule".
type alertKey struct{ host, rule string }

// NewAlertManager creates an alert manager over an aggregator, evaluating
// the given threshold rules.
func NewAlertManager(agg *Aggregator, rules ...Rule) *AlertManager {
	return &AlertManager{agg: agg, DownAfter: 3, rules: slices.Clone(rules)}
}

// Evaluate checks all rules against the latest samples. interval is the
// polling period (for host-down math). Call after each Poll, or schedule
// alongside the aggregator.
func (am *AlertManager) Evaluate(now sim.Time, interval sim.Time) {
	am.mu.Lock()
	defer am.mu.Unlock()
	hosts := am.agg.Hosts()
	if am.lastSeen == nil {
		am.lastSeen = make(map[string]sim.Time, len(hosts))
	}
	for _, host := range hosts {
		// Track freshness using any metric's latest timestamp.
		if s := am.agg.Series(host, "cpu_num"); s != nil {
			if m, ok := s.Latest(); ok {
				if m.At > am.lastSeen[host] {
					am.lastSeen[host] = m.At
				}
			}
		}
		for _, r := range am.rules {
			s := am.agg.Series(host, r.Metric)
			if s == nil {
				continue
			}
			m, ok := s.Latest()
			if !ok || m.At != now {
				continue // stale sample; host-down handles silence
			}
			key := alertKey{host, r.Name}
			firing := m.Value > r.Threshold
			if firing && !am.active[key] {
				am.raise(key)
				am.log = append(am.log, Alert{At: now, Host: host, Rule: r.Name, Firing: true,
					Detail: fmt.Sprintf("%s = %.2f > %.2f", r.Metric, m.Value, r.Threshold)})
			}
			if !firing && am.active[key] {
				delete(am.active, key)
				am.log = append(am.log, Alert{At: now, Host: host, Rule: r.Name, Firing: false,
					Detail: fmt.Sprintf("%s = %.2f", r.Metric, m.Value)})
			}
		}
		// Host-down rule.
		key := alertKey{host, "host-down"}
		silent := now-am.lastSeen[host] >= sim.Time(am.DownAfter)*interval
		if silent && !am.active[key] {
			am.raise(key)
			am.log = append(am.log, Alert{At: now, Host: host, Rule: "host-down", Firing: true,
				Detail: fmt.Sprintf("no samples for %v", (now - am.lastSeen[host]).Duration())})
		}
		if !silent && am.active[key] {
			delete(am.active, key)
			am.log = append(am.log, Alert{At: now, Host: host, Rule: "host-down", Firing: false,
				Detail: "reporting again"})
		}
	}
}

// raise marks an alert firing. am.mu held.
func (am *AlertManager) raise(key alertKey) {
	if am.active == nil {
		am.active = make(map[alertKey]bool)
	}
	am.active[key] = true
}

// Active returns currently firing alert keys, sorted.
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
