package api

// Durability: every tenant's store applies each resource mutation, as a
// typed record, to an in-memory mirror — the persistent model, whose rows
// are the resources: a live deployment or fleet adds to its row only its
// build handle or live fleet, so no client reads a state the log lacks,
// and a ready deployment's row carries the summary its listings render. A
// durable server's store journals the record to a write-ahead log
// (internal/wal) first and periodically snapshots its state, so a restart
// with the same data directory recovers deployments, fleets, and scenario
// runs; a memory-only server's has no log. A snapshot is just the
// marshalled mirror, and recovery is "load snapshot, re-apply the WAL
// tail, materialize live resources from the mirror". Materializing (see
// materialize) serves every resource from its row, and one rule covers
// both kinds that hold live state: a ready deployment is rebuilt from its
// recorded request, its recorded day-2 ops replayed, and a provisioned
// fleet re-provisioned, only when a request first needs it live. It also
// reconciles builds in flight at the crash, and re-provisions a fleet with
// a scenario run in flight and replays that run from its seed, verified
// against the recorded rolling hash at the recorded cursor: a divergence
// settles the run as "error" rather than presenting a trace that is not the
// one the crashed server was producing.
//
// Replay correctness leans on the scenario engine's determinism contract:
// a scenario's trace is a pure function of (script, seed, fresh fleet).
// A run that was not a fleet's first therefore fails hash verification
// after recovery — by design, loudly — because the fleet's accumulated
// day-2 state (poll counters, virtual clocks) is not part of the replay.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"xcbc/internal/jsonread"
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

// depSettledRec ends a build. A ready one carries its Summary; any other its
// Events, the build's journal, which recovery serves from the row, while a
// ready deployment is rebuilt from its request and regenerates its own.
type depSettledRec struct {
	ID      string      `json:"id"`
	State   string      `json:"state"`
	Error   string      `json:"error,omitempty"`
	Events  []eventInfo `json:"events,omitempty"`
	Summary *depSummary `json:"summary,omitempty"`
}

// depSummary is what a ready deployment's row renders without its live
// build: the build's results, its journal tip, and its frontend's compat
// counts as of settling or the last update that applied packages.
type depSummary struct {
	Scheduler         string   `json:"scheduler,omitempty"`
	PackagesInstalled int      `json:"packages_installed,omitempty"`
	InstallDuration   string   `json:"install_duration,omitempty"`
	Quarantined       []string `json:"quarantined,omitempty"`
	CompatPassed      int      `json:"compat_passed,omitempty"`
	CompatTotal       int      `json:"compat_total,omitempty"`
	NextCursor        int      `json:"next_cursor,omitempty"`
}

// summaryOf reads a ready build's summary off its handle; nil if not ready.
func summaryOf(h *xcbc.Handle) *depSummary {
	d, ok := h.Deployment()
	if !ok {
		return nil
	}
	sum := &depSummary{Scheduler: d.Scheduler(), PackagesInstalled: d.PackagesInstalled(),
		InstallDuration: d.InstallDuration().String(), Quarantined: d.Quarantined()}
	sum.CompatPassed, sum.CompatTotal, _ = d.CompatCounts() // 0, 0 on error
	_, sum.NextCursor = h.Events(math.MaxInt)
	return sum
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
// cluster; Op selects its meaningful fields, and an update that applies
// packages carries the compat counts it left, for the row. dep is the row
// its route ran it on; a record recovery reads from the log tail keeps its
// payload, enc. The mirror keeps neither, nor the ID.
type clusterOpRec struct {
	ID           string            `json:"id,omitempty"`
	Op           string            `json:"op"` // job.submit | job.cancel | advance | updates
	Job          *submitJobRequest `json:"job,omitempty"`
	JobID        int               `json:"job_id,omitempty"`
	Duration     string            `json:"duration,omitempty"`
	Policy       string            `json:"policy,omitempty"`
	At           time.Time         `json:"at,omitzero"`
	CompatPassed int               `json:"compat_passed,omitempty"`
	CompatTotal  int               `json:"compat_total,omitempty"`
	dep          *depMirror
	enc          []byte
}

// read reports whether op changes nothing: a metrics or alerts read, or an
// update check that only notifies, which an older binary journaled as ops.
// Reads are not written, so rebuild skips the ones an older DataDir holds.
func (op clusterOpRec) read() bool {
	return op.Op == "metrics" || op.Op == "alerts" || op.Op == "updates" && (op.Policy == "" || op.Policy == "notify")
}

// opLog is a ready deployment's day-2 ops in log order, kept as the JSON
// array a snapshot holds them in: apply appends each op as json.Marshal
// writes it, Open only scans a recovered log (scan), and rebuild parses it
// (parseOps) on first use. n counts its ops, -1 if raw is no array.
type opLog struct {
	raw []byte
	n   int
}

func (l opLog) MarshalJSON() ([]byte, error) { return l.raw, nil }

// UnmarshalJSON decodes a log as the journal decoder does (see scan).
func (l *opLog) UnmarshalJSON(data []byte) error {
	r := jsonread.New(bytes.Clone(data))
	l.scan(&r)
	return r.End()
}

// scan reads a log in one validating pass that counts its ops. null or []
// is the empty log, which the row omits.
func (l *opLog) scan(r *jsonread.Reader) {
	*l = opLog{}
	if r.Null() {
		return
	}
	if l.raw, l.n = r.Elems(); l.n == 0 {
		*l = opLog{}
	}
}

// add appends op, without its ID, as json.Marshal writes it. A log that is
// no array stays as it is, for rebuild to refuse.
func (l *opLog) add(op clusterOpRec) {
	data, err := op.elem()
	if err != nil || l.n < 0 {
		return // a durable store's emit logged these fields, so err is nil
	}
	raw, sep := l.raw[:max(len(l.raw)-1, 0)], byte(',') // the log less its ]
	if l.n == 0 {
		sep = '['
	}
	// A recovered log is the snapshot's bytes, capped: growing copies it.
	raw = append(slices.Grow(raw, len(data)+2), sep)
	l.raw, l.n = append(append(raw, data...), ']'), l.n+1
}

// elem is op as an element of its log: the payload it was logged as less
// its leading id, when recovery kept one (so a restart marshals no op), or
// else json.Marshal of op without its ID.
func (op clusterOpRec) elem() ([]byte, error) {
	if id := `{"id":"` + op.ID + `",`; len(op.enc) > len(id) && string(op.enc[:len(id)]) == id {
		return append([]byte{'{'}, op.enc[len(id):]...), nil
	}
	op.ID = ""
	return json.Marshal(op)
}

// parseOps parses an op log for rebuild; this package's tests count parses
// through it.
var parseOps = func(l opLog) ([]clusterOpRec, error) {
	var ops []clusterOpRec
	if l.raw == nil {
		return nil, nil
	}
	return ops, decodeJSON(l.raw, &ops)
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

// scenarioStartedRec starts a run. row is the live path's: the row its
// handler built around the record, with the live state, which apply
// publishes; a decoded record has none, and apply builds the row.
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
// settlement and summary from it (see store.status). Like every row, it is
// written only by apply and read under st.idx (see store). Summary is
// replaced, never written through. Below Summary is its live state: the
// build handle, which owns all mutable build state. One recovery settled
// has none: a failed one's Events are its journal and day-2 routes answer
// 422; a ready one gets it from rebuild (see handle).
type depMirror struct {
	Created depCreatedRec `json:"created"`
	Events  []eventInfo   `json:"events,omitempty"`
	Ops     opLog         `json:"ops,omitzero"`
	State   string        `json:"state,omitempty"` // "" while building
	Error   string        `json:"error,omitempty"`
	Summary *depSummary   `json:"summary,omitempty"` // once ready

	h         *xcbc.Handle
	journaled chan struct{}       // closed once the watcher's settlement is applied; nil without a watcher
	rebuild   func() *xcbc.Handle // runs once; nil unless recovered ready
	lost      string              // why recovery could not build it, under st.idx; it then reads failed
	opMu      sync.Mutex          // orders its day-2 ops (see store.operate); guards no field
}

// runMirror is one scenario run's persistent model, and the row its routes
// serve (see runInfoOf).
type runMirror struct {
	Started scenarioStartedRec   `json:"started"`
	Cursor  int                  `json:"cursor"`
	Hash    uint64               `json:"hash"`
	State   string               `json:"state,omitempty"` // "" while running
	Error   string               `json:"error,omitempty"`
	Result  *xcbc.ScenarioResult `json:"result,omitempty"`
}

// fleetMirror is one fleet's persistent model; Runs indexes its runs in
// start order. Below Runs is its live state: the fleet (see fleet).
type fleetMirror struct {
	Created     fleetCreatedRec `json:"created"`
	Provisioned bool            `json:"provisioned"`
	Runs        []*runMirror    `json:"runs,omitempty"`

	fl        *xcbc.Fleet
	provision func() // runs once; nil unless recovered provisioned with no run in flight
}

// fleet returns the live fleet. The first call re-provisions a recovered
// provisioned fleet, and concurrent first calls wait for that one
// provisioning, so callers hold no lock.
func (f *fleetMirror) fleet() *xcbc.Fleet {
	if f.provision != nil {
		f.provision()
	}
	return f.fl
}

// runLive reports whether the fleet's last run has yet to settle (one runs
// at a time). Callers hold st.mu, under which apply settles a run.
func (f *fleetMirror) runLive() bool {
	return len(f.Runs) > 0 && f.Runs[len(f.Runs)-1].State == ""
}

// run returns the fleet's run id, nil if there is none or no fleet: run sN
// is Runs[N-1].
func (f *fleetMirror) run(id string) *runMirror {
	if f == nil {
		return nil
	}
	if i := numSuffix(id) - 1; i >= 0 && i < len(f.Runs) && f.Runs[i].Started.RunID == id {
		return f.Runs[i]
	}
	return nil
}

// campaignMirror is one campaign's persistent model, and the row its
// routes serve: the spec it started with, every per-seed outcome so far
// (in seed order), and its terminal state once settled.
type campaignMirror struct {
	Started  campaignStartedRec         `json:"started"`
	Outcomes []xcbc.CampaignSeedOutcome `json:"outcomes,omitempty"`
	State    string                     `json:"state,omitempty"` // "" while running
	Error    string                     `json:"error,omitempty"`
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

// store is one tenant's state: the mirror, which indexes the tenant's
// resources (see index.go), the tasks it spawns to feed settlements into
// it, and on a durable server the WAL; log is nil on a memory-only one.
// newServer gives every tenant one, and Open attaches the log before the
// server serves.
//
// Lock order: a deployment's op lock (depMirror.opMu), then st.mu, then
// st.idx; a day-2 op's adapter lock is taken under its op lock, never under
// st.mu. A first use that builds holds none of them.
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
	// idx guards the mirror's maps and rows: apply, under mu, takes it to
	// write them, and handlers read them under its read side, so no read
	// waits on an append. A reader copies what it renders in one hold of
	// the read side, and never takes it again while holding it.
	idx sync.RWMutex
	// appended, if set, runs under mu between a record's append and its
	// apply: the stop point of this package's tests. Nil in production.
	appended func(seq uint64, typ string)
}

// checkpointEvery is how many trace events a scenario run hashes between
// two scenario.progress checkpoints: a replay after a crash is verified
// against a recorded hash at most checkpointEvery-1 events short of where
// the run had got to.
const checkpointEvery = 64

// RecoveryReport summarizes what Open recovered from a data directory: in
// multi-tenant mode, counts sum over the tenants' logs, Repaired is any
// log's and SnapshotSeq the furthest-ahead log's. Every count is decided
// when Open returns: a ready deployment whose build, on first use, fails to
// land ready or skips an op that no longer applies changes none of them.
type RecoveryReport struct {
	DataDir          string `json:"data_dir"`
	SnapshotSeq      uint64 `json:"snapshot_seq"`
	Records          int    `json:"records"` // WAL records applied after the snapshot
	Repaired         bool   `json:"repaired"`
	DroppedBytes     int64  `json:"dropped_bytes"`
	Deployments      int    `json:"deployments"`
	Rebuilt          int    `json:"rebuilt"`      // ready deployments restored, built on first use
	Archived         int    `json:"archived"`     // terminal deployments reloaded as records
	Interrupted      int    `json:"interrupted"`  // mid-build at crash, reconciled to failed
	Resumed          int    `json:"resumed"`      // mid-build at crash, restarted
	OpsReplayed      int    `json:"ops_replayed"` // ops in the recovered logs, an older DataDir's journaled reads included, which first use skips
	Fleets           int    `json:"fleets"`
	Runs             int    `json:"runs"`     // settled scenario runs restored
	Replayed         int    `json:"replayed"` // in-flight runs replayed from seed
	ReplayMismatches int    `json:"replay_mismatches"`
	// Campaigns restored, and of them those in flight at the crash, which
	// now report their partial per-seed results as "interrupted".
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
// When open returns, every in-flight scenario run has been replayed and
// verified; ready deployments and provisioned fleets go live on first use
// (see materialize).
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
		if op, ok := typed.(*clusterOpRec); ok {
			op.enc = r.Data
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

// spawn runs fn as one of the store's tasks, which close cancels (through
// st.ctx) and waits for; once the store is closing it starts nothing.
func (st *store) spawn(fn func()) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ctx.Err() == nil {
		st.wg.Add(1)
		go func() { defer st.wg.Done(); fn() }()
	}
}

// close cancels the store's tasks and waits for them, then syncs and closes
// the WAL, if any; appends arriving afterwards are dropped (ErrClosed). A
// task it cancels journals no settlement, leaving its work as a crash does.
// A spawn checks st.ctx and counts itself under st.mu, so once close has
// taken that lock after cancelling, Add never races Wait.
func (st *store) close() error {
	st.cancel()
	st.mu.Lock()
	st.mu.Unlock()
	st.wg.Wait()
	if st.log == nil {
		return nil
	}
	return st.log.Close()
}

// emit persists one record and applies it: a one-entry emitAll.
func (st *store) emit(typ string, rec record) error { return st.emitAll(entry{typ, rec}) }

// entry is one record of an emitAll batch, under its WAL record type.
type entry struct {
	typ string
	rec record
}

// emitAll persists records as one batch and applies them to the mirror in
// one hold of st.mu, so mirror order is log order, then snapshots if due.
// A failed or closed log refuses the batch first. Each record is admitted
// (see index.go) and marshalled, the batch appended, and only then applied:
// the mirror takes the typed values (decoding is recovery's job alone) and
// holds nothing the log refused. An error is admit's refusal or the log's,
// and nothing was applied. Without a log it admits and applies.
func (st *store) emitAll(entries ...entry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.refusing(entries[0].typ); err != nil {
		return err
	}
	batch := make([]wal.BatchEntry, 0, 2)
	for _, e := range entries {
		if a, ok := e.rec.(admitter); ok {
			if err := a.admit(st); err != nil {
				return err
			}
		}
		if st.log != nil {
			data, err := encodeRecord(e.rec)
			if !st.wrote("marshal ", e.typ, err) {
				return err
			}
			batch = append(batch, wal.BatchEntry{Type: e.typ, Data: data})
		}
	}
	if st.log != nil {
		seq, err := st.log.AppendBatch(batch)
		if !st.wrote("append ", entries[0].typ, err) {
			return err
		}
		for i, e := range entries {
			if st.appended != nil {
				st.appended(seq+uint64(i), e.typ)
			}
		}
	}
	st.idx.Lock()
	for _, e := range entries {
		e.rec.apply(st.m)
	}
	st.idx.Unlock()
	if st.log != nil {
		if st.dirty += len(entries); st.dirty >= st.snapEvery {
			st.wrote("snapshot", "", st.snapshotLocked())
		}
	}
	return nil
}

// refusing is a failed or closed log's refusal of a record of type typ.
func (st *store) refusing(typ string) (err error) {
	if st.log != nil {
		err = st.log.Err()
		st.wrote("append ", typ, err)
	}
	return err
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
// mirror the crashed server had. Records for unknown resources are
// dropped. The live path calls them under st.mu and st.idx, which its
// readers take; recovery before any watcher exists. A created or started
// record publishes the row its handler built around it; a decoded one
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
		d.State, d.Error = r.State, r.Error
		// Nothing reads a ready deployment's journal; any other settlement
		// brings its own, unless an older binary mirrored it event by event.
		if r.State == string(xcbc.StateReady) {
			d.Events, d.Summary = nil, r.Summary
		} else if r.Events != nil {
			d.Events = r.Events
		}
	}
}

func (r depDeletedRec) apply(m *mirror) { delete(m.Deployments, r.ID) }

func (r clusterOpRec) apply(m *mirror) {
	if d := m.Deployments[r.ID]; d != nil {
		d.Ops.add(r)
		if r.CompatTotal > 0 && d.Summary != nil {
			sum := *d.Summary
			sum.CompatPassed, sum.CompatTotal = r.CompatPassed, r.CompatTotal
			d.Summary = &sum
		}
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
	if run := m.Fleets[r.FleetID].run(r.RunID); run != nil {
		run.Cursor, run.Hash = r.Cursor, r.Hash
	}
}

func (r scenarioSettledRec) apply(m *mirror) {
	if run := m.Fleets[r.FleetID].run(r.RunID); run != nil {
		run.State, run.Error, run.Result = r.State, r.Error, r.Result
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
		c.Outcomes = append(c.Outcomes, r.Outcome)
	}
}

func (r campaignSettledRec) apply(m *mirror) {
	if c := m.Campaigns[r.ID]; c != nil {
		c.State, c.Error = r.State, r.Error
	}
}

// decodeRecord rebuilds the typed record a logged payload was marshalled
// from. It is recovery's only decoder: an unknown type or an undecodable
// payload is an error, never a skipped record — skipping would let the
// next snapshot truncate the log and make the loss permanent.
func decodeRecord(typ string, data []byte) (record, error) {
	mk, ok := recordTypes[typ]
	if !ok {
		return nil, errors.New("unknown record type")
	}
	rec := mk()
	if err := decodeJSON(data, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// recordTypes makes the value each WAL record type decodes into.
var recordTypes = map[string]func() record{
	recDeploymentCreated: func() record { return new(depCreatedRec) },
	recDeploymentEvent:   func() record { return new(depEventRec) },
	recDeploymentSettled: func() record { return new(depSettledRec) },
	recDeploymentDeleted: func() record { return new(depDeletedRec) },
	recClusterOp:         func() record { return new(clusterOpRec) },
	recFleetCreated:      func() record { return new(fleetCreatedRec) },
	recFleetMember:       func() record { return new(fleetMemberRec) },
	recFleetProvisioned:  func() record { return new(fleetProvisionedRec) },
	recFleetDeleted:      func() record { return new(fleetDeletedRec) },
	recScenarioStarted:   func() record { return new(scenarioStartedRec) },
	recScenarioProgress:  func() record { return new(scenarioProgressRec) },
	recScenarioSettled:   func() record { return new(scenarioSettledRec) },
	recCampaignStarted:   func() record { return new(campaignStartedRec) },
	recCampaignSeed:      func() record { return new(campaignSeedRec) },
	recCampaignSettled:   func() record { return new(campaignSettledRec) },
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
// the terminal state — with the summary a ready row renders, or else the
// journal the handle then serves, which is what recovery serves — in its
// row, and once that settlement is applied closes dep.journaled. A
// settlement the log refused leaves the row, and the event stream, where
// they were: the deployment reads building, as it will after a restart.
func (st *store) watchDeployment(dep *depMirror) {
	st.spawn(func() {
		select {
		case <-dep.h.Done():
		case <-st.ctx.Done():
		}
		final := dep.h.Status()
		if !final.Terminal() {
			return // store shutting down; the next recovery reconciles
		}
		rec := depSettledRec{ID: dep.Created.ID, State: string(final)}
		if err := dep.h.Err(); err != nil {
			rec.Error = err.Error()
		}
		if final == xcbc.StateReady {
			rec.Summary = summaryOf(dep.h)
		} else {
			rec.Events, _ = dep.events(page{}, nil)
		}
		if st.emit(recDeploymentSettled, rec) == nil {
			close(dep.journaled)
		}
	})
}

// replayTarget is the recorded (cursor, hash) a recovery replay must
// reproduce before its result may be trusted.
type replayTarget struct {
	cursor int
	hash   uint64
}

// byNum returns the IDs in a mirror map numbered after floor, in numeric
// order ("d2" before "d10"): recovery materializes resources in creation
// order, and listings page them in it.
func byNum[T any](m map[string]*T, floor int) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		if numSuffix(id) > floor {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return numSuffix(ids[i]) < numSuffix(ids[j]) })
	return ids
}

// materialize gives the recovered mirror's rows their live state, with the
// server constructed but not yet serving. It does here whatever can fail
// Open or journals: archiving terminal builds, reconciling (or resuming)
// interrupted ones, recreating every fleet, replaying a run in flight.
// What it leaves to first use, a build or a provisioning, starts none once
// the store has closed.
func (st *store) materialize(report *RecoveryReport) error {
	deps, fleets := st.m.Deployments, st.m.Fleets
	// Deployments first (fleets do not depend on them), in ID order.
	report.Deployments += len(deps)
	var resumed []*xcbc.Handle
	for _, id := range byNum(deps, 0) {
		dep := deps[id]
		st.recoverDeployment(dep, report)
		if dep.h != nil {
			resumed = append(resumed, dep.h)
		}
	}
	report.Fleets += len(fleets)
	for _, id := range byNum(fleets, 0) {
		if err := st.recoverFleet(fleets[id], report); err != nil {
			// A failed Open leaves nothing it started running. Watchers go
			// first, so none of them journals the cancellation of a resumed
			// build.
			st.cancel()
			st.wg.Wait()
			for _, h := range resumed {
				h.Cancel()
			}
			return err
		}
	}
	for _, id := range byNum(st.m.Campaigns, 0) {
		st.recoverCampaign(st.m.Campaigns[id], report)
	}
	return nil
}

// recoverDeployment materializes one deployment from its mirror row; a
// ready one gets rebuild, its build on first use. A resume that fails is
// not journaled: the deployment reads failed (lost) while its row keeps
// what the log says, and the next restart tries again.
func (st *store) recoverDeployment(dep *depMirror, report *RecoveryReport) {
	switch dep.State {
	case string(xcbc.StateReady):
		report.Rebuilt++
		report.OpsReplayed += max(dep.Ops.n, 0)
		dep.rebuild = sync.OnceValue(func() *xcbc.Handle { return st.rebuild(dep) })
	case string(xcbc.StateFailed), string(xcbc.StateCancelled):
		report.Archived++
	default:
		// No settled record: the server died with this build in flight.
		if st.resume {
			h, _, err := st.srv.startBuild(dep.Created.Req)
			if err != nil {
				dep.lost = "recovery resume: " + err.Error()
				report.Archived++
				break
			}
			dep.h, dep.journaled = h, make(chan struct{})
			st.watchDeployment(dep)
			report.Resumed++
			break
		}
		msg := "interrupted: the server terminated while this deployment was building"
		if st.emit(recDeploymentSettled, depSettledRec{
			ID: dep.Created.ID, State: string(xcbc.StateFailed), Error: msg,
		}) != nil {
			dep.lost = msg // the log refused the record; the next restart reconciles again
		}
		report.Interrupted++
	}
}

// rebuild parses a recovered ready deployment's op log, builds it from its
// recorded request, replays the ops in log order, and returns its handle.
// A log that is no list of ops, or a build that does not land ready again
// (deterministic, it should), returns nil, and the deployment reads
// failed, not half-true. Nothing journals. It reads the log and writes lost
// under st.idx; a day-2 route waits for it, so no op joins the log first.
func (st *store) rebuild(dep *depMirror) *xcbc.Handle {
	fail := func(msg string) *xcbc.Handle {
		st.idx.Lock()
		dep.lost = msg
		st.idx.Unlock()
		return nil
	}
	if err := st.ctx.Err(); err != nil {
		return fail("recovery rebuild: " + err.Error())
	}
	st.idx.RLock()
	l := dep.Ops
	st.idx.RUnlock()
	ops, err := parseOps(l)
	if err != nil {
		return fail("recovery rebuild: decoding its ops: " + err.Error())
	}
	h, _, err := st.srv.startBuild(dep.Created.Req)
	if err != nil {
		return fail("recovery rebuild: " + err.Error())
	}
	d, err := h.Wait(st.ctx)
	if err != nil {
		h.Cancel()
		return fail("recovery rebuild settled " + string(h.Status()) + ": " + err.Error())
	}
	cl := d.Open()
	for _, op := range ops {
		if op.read() {
			continue
		}
		if _, err := runOp(cl, &op); err != nil {
			st.logf("store: %s: replaying %s: %v", dep.Created.ID, op.Op, err)
		}
	}
	return h
}

// recoverFleet materializes one fleet and serves its scenario runs from
// their rows: a settled run's row already holds its recorded result. A
// provisioned fleet with no run in flight gets provision, its
// re-provisioning on first use; one with a run in flight is re-provisioned
// and the run replayed before recoverFleet returns.
func (st *store) recoverFleet(f *fleetMirror, report *RecoveryReport) error {
	id := f.Created.ID
	fl, err := xcbc.NewFleet(fleetSpecOf(f.Created.Req))
	if err != nil {
		return fmt.Errorf("api: recovering fleet %s: %w", id, err)
	}
	f.fl = fl
	var inflight *runMirror
	for _, run := range f.Runs {
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
			return fmt.Errorf("api: recovering run %s/%s: %w", id, inflight.Started.RunID, err)
		}
		// A run that arms kickstart faults must replay against a fleet whose
		// builds have not started; its provision phase builds the members.
		if f.Provisioned && !sc.RequiresFreshFleet() {
			if err := provision(); err != nil {
				return fmt.Errorf("api: re-provisioning fleet %s: %w", id, err)
			}
		}
		// In flight at the crash: replay from the seed and verify the trace
		// prefix against the recorded cursor and hash.
		err = st.srv.executeRun(st, f, inflight, sc, &replayTarget{cursor: inflight.Cursor, hash: inflight.Hash})
		report.Replayed++
		if errors.Is(err, errReplayDiverged) {
			report.ReplayMismatches++
		}
		return nil
	}
	if f.Provisioned {
		f.provision = sync.OnceFunc(func() {
			if st.ctx.Err() != nil {
				return // closed before first use
			}
			if err := provision(); err != nil && st.ctx.Err() == nil {
				st.logf("store: re-provisioning fleet %s: %v", id, err)
			}
		})
	}
	return nil
}

// errReplayDiverged marks a recovery replay whose regenerated trace did
// not reproduce the recorded prefix hash.
var errReplayDiverged = errors.New("replay diverged from the recorded trace")

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
}

// handleStore reports durability status: whether the request's tenant has
// a data directory attached, and if so the WAL's size and the age of the
// newest snapshot.
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request, st *store) {
	if st.log == nil {
		writeJSON(w, http.StatusOK, storeInfo{Durable: false})
		return
	}
	stats := st.log.Stats()
	info := storeInfo{
		Durable:              true,
		DataDir:              stats.Dir,
		NextSeq:              stats.NextSeq,
		SnapshotSeq:          stats.SnapshotSeq,
		RecordsSinceSnapshot: stats.NextSeq - stats.SnapshotSeq,
		Segments:             stats.Segments,
		WALBytes:             stats.WALBytes,
		SnapshotBytes:        stats.SnapshotBytes,
	}
	if !stats.SnapshotTime.IsZero() {
		info.SnapshotAge = s.clock().Sub(stats.SnapshotTime).Round(time.Millisecond).String()
	}
	writeJSON(w, http.StatusOK, info)
}
