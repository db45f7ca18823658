package api

// Durability: every tenant's store applies each resource mutation, as a
// typed record, to an in-memory mirror — the persistent model, whose rows
// are the resources: a live deployment or fleet adds to its row only its
// build handle or live fleet, so no client reads a state the log lacks. A
// durable server's store journals the record to a write-ahead log
// (internal/wal) first and periodically snapshots its state, so a restart
// with the same data directory recovers deployments, fleets, and scenario
// runs; a memory-only server's has no log. A snapshot is just the
// marshalled mirror, and recovery is "load snapshot, re-apply the WAL
// tail, materialize live resources from the mirror". A record is a typed
// value with one apply method: the live path applies the value it emitted,
// recovery applies decodeRecord of the logged bytes, and a record recovery
// cannot decode fails Open rather than being skipped. Materializing means:
//
//   - deployments that settled ready are rebuilt deterministically from
//     their recorded request, then their recorded day-2 operations (job
//     submissions and cancellations, advances, update checks, metric polls,
//     alert reads) are replayed in order against the live cluster — after
//     Open returns, with each request for one of them waiting for it alone;
//   - deployments that settled failed or cancelled are served from their
//     rows, day-2 routes answering 422, as is a ready one whose rebuild
//     fails, from a row the mirror never sees: the next Open rebuilds it;
//   - deployments mid-build at the crash are reconciled to
//     failed (interrupted), or restarted from their recorded request when
//     the store was opened with ResumeInterrupted;
//   - fleets are recreated and re-provisioned, in the background like
//     ready deployments unless a run was in flight; settled scenario runs
//     reload their full recorded result; a run in flight at the crash is
//     replayed from its seed, and the replayed trace is verified against
//     the recorded rolling hash at the recorded cursor — a divergence
//     settles the run as "error" rather than presenting a trace that is
//     not the one the crashed server was producing.
//
// Replay correctness leans on the scenario engine's determinism contract:
// a scenario's trace is a pure function of (script, seed, fresh fleet).
// A run that was not a fleet's first therefore fails hash verification
// after recovery — by design, loudly — because the fleet's accumulated
// day-2 state (poll counters, virtual clocks) is not part of the replay.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
)

// DefaultSnapshotEvery is how many WAL records may accumulate before the
// store snapshots its state and truncates the log, when Config does not
// say otherwise.
const DefaultSnapshotEvery = 256

// record is one journaled mutation: a *Rec struct below, logged as JSON
// under its WAL record type and folded into the mirror by apply. Once
// emitted a record is immutable — the mirror keeps references into it
// (request slices, raw scenario documents), not copies.
type record interface {
	apply(m *mirror)
}

// WAL record types.
const (
	recDeploymentCreated = "deployment.created"
	recDeploymentEvent   = "deployment.event"
	recDeploymentSettled = "deployment.settled"
	recDeploymentDeleted = "deployment.deleted"
	recClusterOp         = "cluster.op"
	recFleetCreated      = "fleet.created"
	recFleetMember       = "fleet.member"
	recFleetProvisioned  = "fleet.provisioned"
	recFleetDeleted      = "fleet.deleted"
	recScenarioStarted   = "scenario.started"
	recScenarioProgress  = "scenario.progress"
	recScenarioSettled   = "scenario.settled"
	recCampaignStarted   = "campaign.started"
	recCampaignSeed      = "campaign.seed"
	recCampaignSettled   = "campaign.settled"
)

// depCreatedRec starts a deployment; row is as in scenarioStartedRec.
type depCreatedRec struct {
	ID      string                  `json:"id"`
	Path    string                  `json:"path"`
	Req     createDeploymentRequest `json:"req"`
	Created time.Time               `json:"created"`
	Cluster string                  `json:"cluster"`
	Site    string                  `json:"site"`
	Nodes   int                     `json:"nodes"`
	row     *depMirror
}

// depEventRec is no longer written — a build's journal rides in its
// settled record — but the ones an older DataDir holds still apply: they
// are a failed, cancelled or in-flight build's journal there.
type depEventRec struct {
	ID    string    `json:"id"`
	Event eventInfo `json:"event"`
}

// depSettledRec ends a build. Events is the build's journal, carried only
// when the build did not end ready: recovery serves it from the row, while a
// ready deployment is rebuilt from its request and regenerates its own.
type depSettledRec struct {
	ID     string      `json:"id"`
	State  string      `json:"state"`
	Error  string      `json:"error,omitempty"`
	Events []eventInfo `json:"events,omitempty"`
}

// idRec is the payload of the records that only name their resource.
type idRec struct {
	ID string `json:"id"`
}

type (
	depDeletedRec       idRec
	fleetProvisionedRec idRec
	fleetDeletedRec     idRec
)

// clusterOpRec records one replayable day-2 mutation against a ready
// cluster. Op selects which optional fields are meaningful. The mirror
// keeps it in its deployment's op list without the ID, which that list
// already says.
type clusterOpRec struct {
	ID       string            `json:"id,omitempty"`
	Op       string            `json:"op"` // job.submit | job.cancel | advance | updates | metrics | alerts
	Job      *submitJobRequest `json:"job,omitempty"`
	JobID    int               `json:"job_id,omitempty"`
	Duration string            `json:"duration,omitempty"`
	Policy   string            `json:"policy,omitempty"`
	At       time.Time         `json:"at,omitzero"`
}

// fleetCreatedRec creates a fleet; row is as in scenarioStartedRec.
type fleetCreatedRec struct {
	ID          string             `json:"id"`
	Name        string             `json:"name"`
	Req         createFleetRequest `json:"req"`
	Created     time.Time          `json:"created"`
	Provisioned bool               `json:"provisioned"`
	row         *fleetMirror
}

// fleetMemberRec is no longer written — a re-provisioned fleet regenerates
// its journal — so the ones an older DataDir holds are decoded and dropped.
type fleetMemberRec struct{}

// scenarioStartedRec starts a run. row is the live path's: the row the
// handler already serves, which apply adopts; a decoded record has none.
type scenarioStartedRec struct {
	FleetID  string          `json:"fleet_id"`
	RunID    string          `json:"run_id"`
	Name     string          `json:"name"`
	Scenario json.RawMessage `json:"scenario"`
	Created  time.Time       `json:"created"`
	row      *runMirror
}

type scenarioProgressRec struct {
	FleetID string `json:"fleet_id"`
	RunID   string `json:"run_id"`
	Cursor  int    `json:"cursor"`
	Hash    uint64 `json:"hash"` // rolling FNV-1a over the trace JSONL prefix
}

type scenarioSettledRec struct {
	FleetID string               `json:"fleet_id"`
	RunID   string               `json:"run_id"`
	State   string               `json:"state"` // passed | failed | error
	Error   string               `json:"error,omitempty"`
	Result  *xcbc.ScenarioResult `json:"result,omitempty"`
}

// encode is json.Marshal(r), byte for byte, without scanning the result
// again: the other fields are marshalled, and the result, the last field,
// appends its compact JSON straight in behind them.
func (r scenarioSettledRec) encode() ([]byte, error) {
	result := r.Result
	r.Result = nil
	data, err := json.Marshal(r)
	if err != nil || result == nil {
		return data, err
	}
	data, err = result.AppendJSON(append(data[:len(data)-1], `,"result":`...))
	if err != nil {
		return nil, err
	}
	return append(data, '}'), nil
}

// campaignStartedRec starts a campaign; row is as in scenarioStartedRec.
type campaignStartedRec struct {
	ID      string            `json:"id"`
	Spec    xcbc.CampaignSpec `json:"spec"`
	Created time.Time         `json:"created"`
	row     *campaignMirror
}

type campaignSeedRec struct {
	ID      string                   `json:"id"`
	Outcome xcbc.CampaignSeedOutcome `json:"outcome"`
}

type campaignSettledRec struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// depMirror is one deployment's persistent model, and its routes read its
// settlement from it. Only apply writes it, under mu; readers take mu alone.
type depMirror struct {
	Created depCreatedRec  `json:"created"`
	Events  []eventInfo    `json:"events,omitempty"`
	Ops     []clusterOpRec `json:"ops,omitempty"`
	State   string         `json:"state,omitempty"` // "" while building
	Error   string         `json:"error,omitempty"`
	mu      sync.Mutex
}

// runMirror is one scenario run's persistent model, and the row its routes
// serve. Only apply writes it, under mu; readers take mu alone.
type runMirror struct {
	Started scenarioStartedRec   `json:"started"`
	Cursor  int                  `json:"cursor"`
	Hash    uint64               `json:"hash"`
	State   string               `json:"state,omitempty"` // "" while running
	Error   string               `json:"error,omitempty"`
	Result  *xcbc.ScenarioResult `json:"result,omitempty"`
	mu      sync.Mutex
}

// fleetMirror is one fleet's persistent model.
type fleetMirror struct {
	Created     fleetCreatedRec `json:"created"`
	Provisioned bool            `json:"provisioned"`
	Runs        []*runMirror    `json:"runs,omitempty"`
}

// campaignMirror is one campaign's persistent model, and the row its
// routes serve: the spec it started with, every per-seed outcome so far
// (in seed order), and its terminal state once settled. Only apply writes
// it, under mu; readers take mu alone.
type campaignMirror struct {
	Started  campaignStartedRec         `json:"started"`
	Outcomes []xcbc.CampaignSeedOutcome `json:"outcomes,omitempty"`
	State    string                     `json:"state,omitempty"` // "" while running
	Error    string                     `json:"error,omitempty"`
	mu       sync.Mutex
}

// mirror is the store's full persistent model; a snapshot is exactly its
// JSON form.
type mirror struct {
	Deployments    map[string]*depMirror      `json:"deployments"`
	Fleets         map[string]*fleetMirror    `json:"fleets"`
	Campaigns      map[string]*campaignMirror `json:"campaigns,omitempty"`
	NextID         int                        `json:"next_id"`
	NextFleetID    int                        `json:"next_fleet_id"`
	NextCampaignID int                        `json:"next_campaign_id,omitempty"`
}

func newMirror() *mirror {
	return &mirror{
		Deployments: make(map[string]*depMirror),
		Fleets:      make(map[string]*fleetMirror),
		Campaigns:   make(map[string]*campaignMirror),
	}
}

// store is one tenant's state: the mirror, the watcher goroutines that feed
// build settlements into it, and on a durable server the WAL; log is nil on
// a memory-only one. newServer gives every tenant one, and Open attaches
// the log before the server serves.
//
// Lock order: fr.mu (a fleet's), then st.mu, then a row's mu. The fleets
// registry's lock comes before fr.mu, which handleDeleteFleet takes under
// it, so nothing takes a registry lock while holding st.mu: materialize
// reads the Next* IDs under st.mu and advances the registries after.
type store struct {
	srv       *Server
	tn        *tenant
	log       *wal.Log
	snapEvery int
	resume    bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	m     *mirror
	dirty int // records appended since the last snapshot
}

// checkpointEvery is how many trace events a scenario run hashes between
// two scenario.progress checkpoints: a replay after a crash is verified
// against a recorded hash at most checkpointEvery-1 events short of where
// the run had got to.
const checkpointEvery = 64

// RecoveryReport summarizes what Open recovered from a data directory: in
// multi-tenant mode, counts sum over the tenants' logs, Repaired is any
// log's and SnapshotSeq the furthest-ahead log's. Every count is decided
// when Open returns. Rebuilt and OpsReplayed count what is scheduled: the
// ready deployments being rebuilt in the background and the day-2 ops
// their rebuilds will replay. A rebuild that then fails to land ready is
// served as failed, and an op that no longer applies is logged and
// skipped, without changing the report.
type RecoveryReport struct {
	DataDir          string `json:"data_dir"`
	SnapshotSeq      uint64 `json:"snapshot_seq"`
	Records          int    `json:"records"` // WAL records applied after the snapshot
	Repaired         bool   `json:"repaired"`
	DroppedBytes     int64  `json:"dropped_bytes"`
	Deployments      int    `json:"deployments"`
	Rebuilt          int    `json:"rebuilt"`      // ready deployments scheduled for rebuilding
	Archived         int    `json:"archived"`     // terminal deployments reloaded as records
	Interrupted      int    `json:"interrupted"`  // mid-build at crash, reconciled to failed
	Resumed          int    `json:"resumed"`      // mid-build at crash, restarted
	OpsReplayed      int    `json:"ops_replayed"` // day-2 ops scheduled for replay
	Fleets           int    `json:"fleets"`
	Runs             int    `json:"runs"`     // settled scenario runs restored
	Replayed         int    `json:"replayed"` // in-flight runs replayed from seed
	ReplayMismatches int    `json:"replay_mismatches"`

	// Campaigns counts campaigns restored from the journal;
	// CampaignsInterrupted is how many of them were in flight at the crash
	// and now report their partial per-seed results as "interrupted".
	Campaigns            int `json:"campaigns"`
	CampaignsInterrupted int `json:"campaigns_interrupted"`

	Elapsed time.Duration `json:"elapsed"`
}

// newStore is a tenant's memory-only store.
func newStore(s *Server, tn *tenant, cfg Config) *store {
	st := &store{srv: s, tn: tn, snapEvery: cfg.SnapshotEvery, resume: cfg.ResumeInterrupted, m: newMirror()}
	if st.snapEvery <= 0 {
		st.snapEvery = DefaultSnapshotEvery
	}
	st.ctx, st.cancel = context.WithCancel(context.Background())
	return st
}

// open attaches the WAL under dir (opening or creating it), rebuilds the
// mirror from the newest snapshot plus the log tail, and materializes the
// tenant's live resources from it, counting what it recovered into report.
// When open returns, every recovered resource is registered, so IDs,
// quotas and paging are exact, and every in-flight scenario run has been
// replayed and verified; ready deployments and provisioned fleets go live
// in the background (see materialize).
func (st *store) open(dir string, report *RecoveryReport) error {
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("api: opening store: %w", err)
	}
	st.dirty = len(rec.Records)
	report.SnapshotSeq = max(report.SnapshotSeq, rec.SnapshotSeq)
	report.Records += len(rec.Records)
	report.Repaired = report.Repaired || rec.Repaired
	report.DroppedBytes += rec.DroppedBytes
	if rec.Snapshot != nil {
		if err := decodeJSON(rec.Snapshot, st.m); err != nil {
			return errors.Join(fmt.Errorf("api: decoding snapshot: %w", err), l.Close())
		}
		if st.m.Deployments == nil {
			st.m.Deployments = make(map[string]*depMirror)
		}
		if st.m.Fleets == nil {
			st.m.Fleets = make(map[string]*fleetMirror)
		}
		if st.m.Campaigns == nil {
			st.m.Campaigns = make(map[string]*campaignMirror)
		}
	}
	for _, r := range rec.Records {
		typed, err := decodeRecord(r.Type, r.Data)
		if err != nil {
			// Fail before anything is appended or snapshotted: the directory
			// stays exactly as found, for an operator (or a newer binary).
			return errors.Join(&recordError{Seq: r.Seq, Type: r.Type, Err: err}, l.Close())
		}
		typed.apply(st.m)
	}
	// Attach before materializing: recovery journals, and replays in-flight
	// scenario runs through the same executeRun the live path uses, which
	// checkpoints only when there is a log.
	st.log = l
	if err := st.materialize(report); err != nil {
		return errors.Join(err, l.Close())
	}
	return nil
}

// close stops the store's watchers, then syncs and closes the WAL, if any.
// Appends arriving afterwards are dropped (ErrClosed).
func (st *store) close() error {
	st.cancel()
	st.wg.Wait()
	if st.log == nil {
		return nil
	}
	return st.log.Close()
}

// emit persists one record and applies it to the mirror, in one critical
// section so mirror order always matches log order, then takes a snapshot
// if the cadence says one is due. Every record type takes the same path:
// marshalled, appended, and only then applied, so the mirror takes the
// typed value itself (decoding is recovery's job alone) and holds nothing
// the log refused. Without a log, emit only applies.
func (st *store) emit(typ string, rec record) {
	if st.log == nil {
		st.mu.Lock()
		rec.apply(st.m)
		st.mu.Unlock()
		return
	}
	data, err := encodeRecord(rec)
	if err != nil {
		st.logf("store: marshal %s: %v", typ, err)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.log.Append(typ, data); !st.wrote("append ", typ, err) {
		return
	}
	rec.apply(st.m)
	st.dirty++
	if st.dirty >= st.snapEvery {
		st.wrote("snapshot", "", st.snapshotLocked())
	}
}

// encodeRecord is the payload emit logs for rec, decodeRecord's inverse.
func encodeRecord(rec record) ([]byte, error) {
	if settled, ok := rec.(scenarioSettledRec); ok {
		return settled.encode() // json.Marshal would scan the result twice
	}
	return json.Marshal(rec)
}

// wrote reports whether a WAL write succeeded, logging the failed operation
// unless it is ErrClosed: appends arriving during shutdown are expected.
func (st *store) wrote(op, typ string, err error) bool {
	if err != nil && !errors.Is(err, wal.ErrClosed) {
		st.logf("store: %s%s: %v", op, typ, err)
	}
	return err == nil
}

// snapshotLocked writes the mirror as a snapshot, letting the WAL truncate
// the history it covers. Callers hold st.mu.
func (st *store) snapshotLocked() error {
	state, err := json.Marshal(st.m)
	if err != nil {
		return fmt.Errorf("marshal mirror: %w", err)
	}
	if err := st.log.Snapshot(state); err != nil {
		return err
	}
	st.dirty = 0
	return nil
}

func (st *store) logf(format string, args ...any) {
	if st.srv.logger != nil {
		st.srv.logger.Printf(format, args...)
	}
}

// The apply methods are the mirror's single transition function, shared by
// the live path and recovery, so replaying the log always lands on the
// mirror the crashed server had. Records for unknown resources (a watcher
// outliving a DELETE) are dropped. The live path calls them under st.mu;
// recovery before any watcher exists. What routes read of a row — a
// deployment's settlement, a run, a campaign — the live path also writes
// under the row's own mu, the only lock its readers take. A created or
// started record adopts the row its handler already serves; a decoded one
// builds a new row.

func (r depCreatedRec) apply(m *mirror) {
	if r.row == nil {
		r.row = &depMirror{Created: r}
	}
	m.Deployments[r.ID] = r.row
	m.NextID = max(m.NextID, numSuffix(r.ID))
}

func (r depEventRec) apply(m *mirror) {
	if d := m.Deployments[r.ID]; d != nil {
		// Seq 0 marks the start of a (possibly new, after a resume) build
		// attempt: the old journal is superseded.
		if r.Event.Seq == 0 {
			d.Events = d.Events[:0]
		}
		d.Events = append(d.Events, r.Event)
	}
}

func (r depSettledRec) apply(m *mirror) {
	if d := m.Deployments[r.ID]; d != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.State, d.Error = r.State, r.Error
		// Nothing reads a ready deployment's journal; any other settlement
		// brings its own, unless an older binary mirrored it event by event.
		if r.State == string(xcbc.StateReady) {
			d.Events = nil
		} else if r.Events != nil {
			d.Events = r.Events
		}
	}
}

func (r depDeletedRec) apply(m *mirror) { delete(m.Deployments, r.ID) }

func (r clusterOpRec) apply(m *mirror) {
	if d := m.Deployments[r.ID]; d != nil {
		r.ID = ""
		d.Ops = append(d.Ops, r)
	}
}

func (r fleetCreatedRec) apply(m *mirror) {
	if r.row == nil {
		r.row = &fleetMirror{Created: r, Provisioned: r.Provisioned}
	}
	m.Fleets[r.ID] = r.row
	m.NextFleetID = max(m.NextFleetID, numSuffix(r.ID))
}

func (fleetMemberRec) apply(*mirror) {}

func (r fleetProvisionedRec) apply(m *mirror) {
	if f := m.Fleets[r.ID]; f != nil {
		f.Provisioned = true
	}
}

func (r fleetDeletedRec) apply(m *mirror) { delete(m.Fleets, r.ID) }

func (r scenarioStartedRec) apply(m *mirror) {
	if f := m.Fleets[r.FleetID]; f != nil {
		if r.row == nil {
			r.row = &runMirror{Started: r}
		}
		f.Runs = append(f.Runs, r.row)
	}
}

func (r scenarioProgressRec) apply(m *mirror) {
	if run := m.findRun(r.FleetID, r.RunID); run != nil {
		run.mu.Lock()
		run.Cursor, run.Hash = r.Cursor, r.Hash
		run.mu.Unlock()
	}
}

func (r scenarioSettledRec) apply(m *mirror) {
	if run := m.findRun(r.FleetID, r.RunID); run != nil {
		run.mu.Lock()
		run.State, run.Error, run.Result = r.State, r.Error, r.Result
		run.mu.Unlock()
	}
}

func (r campaignStartedRec) apply(m *mirror) {
	if r.row == nil {
		r.row = &campaignMirror{Started: r}
	}
	m.Campaigns[r.ID] = r.row
	m.NextCampaignID = max(m.NextCampaignID, numSuffix(r.ID))
}

func (r campaignSeedRec) apply(m *mirror) {
	if c := m.Campaigns[r.ID]; c != nil {
		c.mu.Lock()
		c.Outcomes = append(c.Outcomes, r.Outcome)
		c.mu.Unlock()
	}
}

func (r campaignSettledRec) apply(m *mirror) {
	if c := m.Campaigns[r.ID]; c != nil {
		c.mu.Lock()
		c.State, c.Error = r.State, r.Error
		c.mu.Unlock()
	}
}

func (m *mirror) findRun(fleetID, runID string) *runMirror {
	f := m.Fleets[fleetID]
	if f == nil {
		return nil
	}
	for _, run := range f.Runs {
		if run.Started.RunID == runID {
			return run
		}
	}
	return nil
}

// decodeRecord rebuilds the typed record a logged payload was marshalled
// from. It is recovery's only decoder: an unknown type or an undecodable
// payload is an error, never a skipped record — skipping would let the
// next snapshot truncate the log and make the loss permanent.
func decodeRecord(typ string, data []byte) (record, error) {
	var rec record
	switch typ {
	case recDeploymentCreated:
		rec = new(depCreatedRec)
	case recDeploymentEvent:
		rec = new(depEventRec)
	case recDeploymentSettled:
		rec = new(depSettledRec)
	case recDeploymentDeleted:
		rec = new(depDeletedRec)
	case recClusterOp:
		rec = new(clusterOpRec)
	case recFleetCreated:
		rec = new(fleetCreatedRec)
	case recFleetMember:
		rec = new(fleetMemberRec)
	case recFleetProvisioned:
		rec = new(fleetProvisionedRec)
	case recFleetDeleted:
		rec = new(fleetDeletedRec)
	case recScenarioStarted:
		rec = new(scenarioStartedRec)
	case recScenarioProgress:
		rec = new(scenarioProgressRec)
	case recScenarioSettled:
		rec = new(scenarioSettledRec)
	case recCampaignStarted:
		rec = new(campaignStartedRec)
	case recCampaignSeed:
		rec = new(campaignSeedRec)
	case recCampaignSettled:
		rec = new(campaignSettledRec)
	default:
		return nil, errors.New("unknown record type")
	}
	if err := decodeJSON(data, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// recordError is Open's failure for a log record recovery cannot read.
type recordError struct {
	Seq  uint64
	Type string
	Err  error
}

func (e *recordError) Error() string {
	return fmt.Sprintf("api: recovering record seq %d (%s): %v", e.Seq, e.Type, e.Err)
}

func (e *recordError) Unwrap() error { return e.Err }

// numSuffix parses the numeric part of a "d7" / "f3" / "s2" identifier.
func numSuffix(id string) int {
	if len(id) < 2 {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0
	}
	return n
}

// watchDeployment waits for a live deployment's build to settle, records
// the terminal state — with the journal the handle then serves when the
// build did not end ready, which is what recovery serves — in its row, and
// then closes dep.journaled.
func (st *store) watchDeployment(dep *deployment) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		select {
		case <-dep.Handle.Done():
		case <-st.ctx.Done():
		}
		final := dep.Handle.Status()
		if !final.Terminal() {
			return // store shutting down; the next recovery reconciles
		}
		rec := depSettledRec{ID: dep.row.Created.ID, State: string(final)}
		if err := dep.Handle.Err(); err != nil {
			rec.Error = err.Error()
		}
		if final != xcbc.StateReady {
			rec.Events, _ = dep.events(page{})
		}
		st.emit(recDeploymentSettled, rec)
		close(dep.journaled)
	}()
}

// traceHash is the rolling FNV-1a digest over a trace's JSONL prefix —
// the replay oracle's fingerprint. Feeding it the same events in the same
// order always lands on the same (cursor, sum) pairs, because the trace
// bytes are themselves part of the scenario determinism contract.
type traceHash struct {
	h      hash.Hash64
	line   []byte // the event being hashed; reused
	cursor int
}

func newTraceHash() *traceHash {
	return &traceHash{h: fnv.New64a()}
}

// add folds one trace event in and returns the cursor and digest after it.
func (th *traceHash) add(ev xcbc.TraceEvent) (int, uint64) {
	th.line = append(ev.AppendJSON(th.line[:0]), '\n')
	th.h.Write(th.line)
	th.cursor = ev.Seq + 1
	return th.cursor, th.h.Sum64()
}

// replayTarget is the recorded (cursor, hash) a recovery replay must
// reproduce before its result may be trusted.
type replayTarget struct {
	cursor int
	hash   uint64
}

// byNum returns a mirror map's entries ordered by numeric ID suffix, so
// recovery materializes resources in creation order ("d2" before "d10").
func byNum[M any](m map[string]*M) []*M {
	ids := slices.Collect(maps.Keys(m))
	sortByNum(ids)
	out := make([]*M, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

// rebuildAhead is how many builds per SDK pool worker the warmer keeps
// started ahead of the deployment it is waiting on: enough that no worker
// idles while the warmer replays ops, few enough that a large DataDir does
// not park a goroutine per deployment on the pool.
const rebuildAhead = 4

// rebuild is a build the warmer started ahead of its deployment's turn.
type rebuild struct {
	h   *xcbc.Handle
	err error
}

// warmStep is an entry materialize registered before it was live: the
// rest of its recovery, which warm runs, and the function that then makes
// it live. build is the rebuild warm starts a window ahead for it; nil for
// a fleet.
type warmStep struct {
	build  *createDeploymentRequest
	finish func(rebuild)
	live   func()
}

// materialize turns the recovered mirror into the tenant's live
// resources. It runs with the server constructed but not yet serving, and
// does here whatever can fail Open or journals: archiving terminal builds,
// reconciling (or resuming) interrupted ones, recreating every fleet and
// restoring its runs, replaying a run in flight. Ready deployments and
// provisioned fleets are registered behind readiness instead, and once
// nothing can fail, warm rebuilds and re-provisions them on st.wg.
func (st *store) materialize(report *RecoveryReport) (err error) {
	tn := st.tn
	st.mu.Lock()
	deps, fleets, camps := byNum(st.m.Deployments), byNum(st.m.Fleets), byNum(st.m.Campaigns)
	nextDep, nextFleet, nextCampaign := st.m.NextID, st.m.NextFleetID, st.m.NextCampaignID
	st.mu.Unlock()
	// The mirror remembers the highest ID ever issued, deleted or not.
	tn.deployments.advance(nextDep)
	tn.fleets.advance(nextFleet)
	tn.campaigns.advance(nextCampaign)

	// Deployments first (fleets do not depend on them), in ID order.
	report.Deployments += len(deps)
	var steps []warmStep
	var resumed []*xcbc.Handle
	defer func() {
		if err == nil {
			st.wg.Add(1)
			go st.warm(steps)
			return
		}
		// A failed Open leaves nothing it started running. Watchers go first,
		// so none of them journals the cancellation of a resumed build.
		st.cancel()
		st.wg.Wait()
		for _, h := range resumed {
			h.Cancel()
		}
	}()
	for _, m := range deps {
		dep, finish := st.recoverDeployment(m, report)
		if finish != nil {
			steps = append(steps, warmStep{build: &m.Created.Req, finish: finish, live: tn.deployments.restoreWarming(m.Created.ID, dep)})
			continue
		}
		if dep.Handle != nil {
			resumed = append(resumed, dep.Handle)
		}
		tn.deployments.restore(m.Created.ID, dep)
	}
	report.Fleets += len(fleets)
	for _, m := range fleets {
		fr, provision, err := st.recoverFleet(m, report)
		if err != nil {
			return err
		}
		if provision != nil {
			steps = append(steps, warmStep{finish: func(rebuild) { provision() }, live: tn.fleets.restoreWarming(m.Created.ID, fr)})
			continue
		}
		tn.fleets.restore(m.Created.ID, fr)
	}
	for _, c := range camps {
		st.recoverCampaign(c, report)
		tn.campaigns.restore(c.Started.ID, c)
	}
	return nil
}

// warm finishes, in ID order, the recovery of every entry materialize
// registered before it was live, and makes each live as soon as it is
// done. It keeps the rebuilds it will wait on started up to rebuildAhead ×
// PoolWorkers() entries ahead, so the pool builds while it replays ops.
// Once the store closes, what is left fails fast — no rebuild is started
// and a running one is cancelled, archiving its deployment as failed — so
// every entry still goes live and no request waits forever. Nothing here
// journals.
func (st *store) warm(steps []warmStep) {
	defer st.wg.Done()
	builds := make([]rebuild, len(steps))
	started := 0
	window := rebuildAhead * xcbc.PoolWorkers()
	for i, step := range steps {
		for ; started < min(i+1+window, len(steps)); started++ {
			if req := steps[started].build; req != nil {
				b := &builds[started]
				if b.err = st.ctx.Err(); b.err == nil {
					b.h, _, b.err = st.srv.startBuild(*req)
				}
			}
		}
		step.finish(builds[i])
		step.live()
	}
}

// recoverDeployment materializes one deployment from its mirror row. A
// ready one is counted as scheduled and returned with the rest of its
// recovery, which warm finishes with the rebuild it started for it;
// anything else is complete when recoverDeployment returns. A rebuild or
// resume that fails is not journaled: its failure is served from a row the
// mirror never sees, so the next snapshot keeps what the log says and the
// next restart tries again.
func (st *store) recoverDeployment(m *depMirror, report *RecoveryReport) (*deployment, func(rebuild)) {
	dep := &deployment{row: m}
	archive := func(errMsg string) {
		dep.row = &depMirror{Created: m.Created, Events: m.Events, State: string(xcbc.StateFailed), Error: errMsg}
	}
	switch m.State {
	case string(xcbc.StateReady):
		report.Rebuilt++
		report.OpsReplayed += len(m.Ops)
		return dep, func(b rebuild) {
			// Rebuild deterministically from the recorded request, then replay
			// the recorded day-2 operations in log order. A rebuild that does
			// not land ready again (it should: the simulated substrate is
			// deterministic for a request that already succeeded once) is
			// served as failed rather than presenting a half-true cluster.
			if b.err != nil {
				archive("recovery rebuild: " + b.err.Error())
				return
			}
			d, err := b.h.Wait(st.ctx)
			if err != nil {
				b.h.Cancel()
				archive("recovery rebuild settled " + string(b.h.Status()) + ": " + err.Error())
				return
			}
			dep.Handle = b.h
			cl := d.Open()
			for _, op := range m.Ops {
				if _, err := runOp(cl, &op); err != nil {
					st.logf("store: %s: replaying %s: %v", m.Created.ID, op.Op, err)
				}
			}
		}
	case string(xcbc.StateFailed), string(xcbc.StateCancelled):
		report.Archived++
	default:
		// No settled record: the server died with this build in flight.
		if st.resume {
			h, _, err := st.srv.startBuild(m.Created.Req)
			if err != nil {
				archive("recovery resume: " + err.Error())
				report.Archived++
				break
			}
			dep.Handle, dep.journaled = h, make(chan struct{})
			st.watchDeployment(dep)
			report.Resumed++
			break
		}
		msg := "interrupted: the server terminated while this deployment was building"
		st.emit(recDeploymentSettled, depSettledRec{
			ID: m.Created.ID, State: string(xcbc.StateFailed), Error: msg,
		})
		if !dep.terminal() {
			archive(msg) // the log refused the record; the next restart reconciles again
		}
		report.Interrupted++
	}
	return dep, nil
}

// recoverFleet materializes one fleet and serves its scenario runs from
// their rows: a settled run's row already holds its recorded result. A
// provisioned fleet with no run in flight is returned with its
// re-provisioning, which warm runs; otherwise the fleet is complete —
// re-provisioned and its in-flight run replayed — when recoverFleet
// returns.
func (st *store) recoverFleet(m *fleetMirror, report *RecoveryReport) (*fleetRecord, func(), error) {
	id := m.Created.ID
	fl, err := xcbc.NewFleet(fleetSpecOf(m.Created.Req))
	if err != nil {
		return nil, nil, fmt.Errorf("api: recovering fleet %s: %w", id, err)
	}
	fr := newFleetRecord(m, fl)
	var inflight *runMirror
	for _, run := range m.Runs {
		fr.runs.restore(run.Started.RunID, run)
		if run.State == "" {
			inflight = run
		} else {
			report.Runs++
		}
	}
	provision := func() error {
		if err := fl.Provision(st.ctx); err != nil {
			return err
		}
		return fl.Wait(st.ctx)
	}
	if inflight != nil {
		sc, err := xcbc.LoadScenario(inflight.Started.Scenario)
		if err != nil {
			return nil, nil, fmt.Errorf("api: recovering run %s/%s: %w", id, inflight.Started.RunID, err)
		}
		// A run that arms kickstart faults must replay against a fleet whose
		// builds have not started; its provision phase builds the members.
		if m.Provisioned && !sc.RequiresFreshFleet() {
			if err := provision(); err != nil {
				return nil, nil, fmt.Errorf("api: re-provisioning fleet %s: %w", id, err)
			}
		}
		// In flight at the crash: replay from the seed and verify the trace
		// prefix against the recorded cursor and hash.
		fr.runLive = true
		err = st.srv.executeRun(st, fr, inflight, sc, &replayTarget{cursor: inflight.Cursor, hash: inflight.Hash})
		report.Replayed++
		if errors.Is(err, errReplayDiverged) {
			report.ReplayMismatches++
		}
		return fr, nil, nil
	}
	if !m.Provisioned {
		return fr, nil, nil
	}
	return fr, func() {
		if st.ctx.Err() != nil {
			return // closed before its turn
		}
		if err := provision(); err != nil && st.ctx.Err() == nil {
			st.logf("store: re-provisioning fleet %s: %v", id, err)
		}
	}, nil
}

// errReplayDiverged marks a recovery replay whose regenerated trace did
// not reproduce the recorded prefix hash.
var errReplayDiverged = errors.New("replay diverged from the recorded trace")

// sortByNum orders resource IDs by their numeric suffix.
func sortByNum(ids []string) {
	sort.Slice(ids, func(i, j int) bool { return numSuffix(ids[i]) < numSuffix(ids[j]) })
}

// storeInfo is the GET /api/v1/store document.
type storeInfo struct {
	Durable              bool   `json:"durable"`
	DataDir              string `json:"data_dir,omitempty"`
	NextSeq              uint64 `json:"next_seq,omitempty"`
	SnapshotSeq          uint64 `json:"snapshot_seq,omitempty"`
	RecordsSinceSnapshot uint64 `json:"records_since_snapshot,omitempty"`
	Segments             int    `json:"segments,omitempty"`
	WALBytes             int64  `json:"wal_bytes,omitempty"`
	SnapshotBytes        int64  `json:"snapshot_bytes,omitempty"`
	SnapshotAge          string `json:"snapshot_age,omitempty"`
	// Warming counts the deployments and fleets recovery has registered but
	// not yet made live; a request for one of them waits for it.
	Warming int `json:"warming,omitempty"`
}

// handleStore reports durability status: whether the request's tenant has
// a data directory attached, and if so the WAL's size, the age of the
// newest snapshot, and how much of the recovered state is still warming.
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	tn := s.tenant(r)
	if tn.store.log == nil {
		writeJSON(w, http.StatusOK, storeInfo{Durable: false})
		return
	}
	stats := tn.store.log.Stats()
	info := storeInfo{
		Durable:              true,
		DataDir:              stats.Dir,
		NextSeq:              stats.NextSeq,
		SnapshotSeq:          stats.SnapshotSeq,
		RecordsSinceSnapshot: stats.NextSeq - stats.SnapshotSeq,
		Segments:             stats.Segments,
		WALBytes:             stats.WALBytes,
		SnapshotBytes:        stats.SnapshotBytes,
		Warming:              tn.deployments.warmingLen() + tn.fleets.warmingLen(),
	}
	if !stats.SnapshotTime.IsZero() {
		info.SnapshotAge = s.clock().Sub(stats.SnapshotTime).Round(time.Millisecond).String()
	}
	writeJSON(w, http.StatusOK, info)
}
