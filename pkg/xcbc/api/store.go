package api

// Durability: the server journals every resource mutation to a write-ahead
// log (internal/wal) and periodically snapshots its state, so a restart
// with the same data directory recovers deployments, fleets, and scenario
// runs. The store keeps an in-memory mirror — the persistent model — that
// every WAL record is applied to as it is appended; a snapshot is just the
// marshalled mirror, and recovery is "load snapshot, re-apply the WAL
// tail, materialize live resources from the mirror". A record is a typed
// value with one apply method: the live path applies the value it emitted,
// recovery applies decodeRecord of the logged bytes, and a record recovery
// cannot decode fails Open rather than being skipped. Materializing means:
//
//   - deployments that settled ready are rebuilt deterministically from
//     their recorded request, then their recorded day-2 operations (job
//     submissions and cancellations, time advances, update checks, metric
//     polls) are replayed in order against the live cluster;
//   - deployments that settled failed or cancelled are archived: state,
//     error, and journal reload as recorded, day-2 routes answer 422;
//   - deployments mid-build at the crash are reconciled to
//     failed (interrupted), or restarted from their recorded request when
//     the store was opened with ResumeInterrupted;
//   - fleets are recreated and re-provisioned; settled scenario runs
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

type depCreatedRec struct {
	ID      string                  `json:"id"`
	Path    string                  `json:"path"`
	Req     createDeploymentRequest `json:"req"`
	Created time.Time               `json:"created"`
	Cluster string                  `json:"cluster"`
	Site    string                  `json:"site"`
	Nodes   int                     `json:"nodes"`
}

// depEventRec is no longer written — a build's journal rides in its
// settled record — but the ones an older DataDir holds still apply: they
// are a failed, cancelled or in-flight build's journal there.
type depEventRec struct {
	ID    string    `json:"id"`
	Event eventInfo `json:"event"`
}

// depSettledRec ends a build. Events is the build's journal, carried only
// when the build did not end ready: the archived view serves it, while a
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
// cluster. Op selects which optional fields are meaningful.
type clusterOpRec struct {
	ID       string            `json:"id"`
	Op       string            `json:"op"` // job.submit | job.cancel | advance | updates | metrics
	Job      *submitJobRequest `json:"job,omitempty"`
	JobID    int               `json:"job_id,omitempty"`
	Duration string            `json:"duration,omitempty"`
	Policy   string            `json:"policy,omitempty"`
	At       time.Time         `json:"at,omitzero"`
}

type fleetCreatedRec struct {
	ID          string             `json:"id"`
	Name        string             `json:"name"`
	Req         createFleetRequest `json:"req"`
	Created     time.Time          `json:"created"`
	Provisioned bool               `json:"provisioned"`
}

// fleetMemberRec is no longer written — a re-provisioned fleet regenerates
// its journal — so the ones an older DataDir holds are decoded and dropped.
type fleetMemberRec struct{}

type scenarioStartedRec struct {
	FleetID  string          `json:"fleet_id"`
	RunID    string          `json:"run_id"`
	Name     string          `json:"name"`
	Scenario json.RawMessage `json:"scenario"`
	Created  time.Time       `json:"created"`
}

type scenarioProgressRec struct {
	FleetID string `json:"fleet_id"`
	RunID   string `json:"run_id"`
	Cursor  int    `json:"cursor"`
	Hash    uint64 `json:"hash"` // rolling FNV-1a over the trace JSONL prefix
}

type scenarioSettledRec struct {
	FleetID string          `json:"fleet_id"`
	RunID   string          `json:"run_id"`
	State   string          `json:"state"` // passed | failed | error
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// encode is json.Marshal(r), byte for byte, for a Result that is already
// compact JSON (ResultJSON's is) without scanning it again: the other
// fields are marshalled and the result, the last field, copied in behind.
func (r scenarioSettledRec) encode() ([]byte, error) {
	result := r.Result
	r.Result = nil
	data, err := json.Marshal(r)
	if err != nil || len(result) == 0 {
		return data, err
	}
	const key = `,"result":`
	data = append(slices.Grow(data[:len(data)-1], len(key)+len(result)+1), key...)
	return append(append(data, result...), '}'), nil
}

type campaignStartedRec struct {
	ID      string            `json:"id"`
	Spec    xcbc.CampaignSpec `json:"spec"`
	Created time.Time         `json:"created"`
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

// depMirror is one deployment's persistent model.
type depMirror struct {
	Created depCreatedRec  `json:"created"`
	Events  []eventInfo    `json:"events,omitempty"`
	Ops     []clusterOpRec `json:"ops,omitempty"`
	State   string         `json:"state,omitempty"` // "" while building
	Error   string         `json:"error,omitempty"`
}

// runMirror is one scenario run's persistent model.
type runMirror struct {
	Started scenarioStartedRec `json:"started"`
	Cursor  int                `json:"cursor"`
	Hash    uint64             `json:"hash"`
	State   string             `json:"state,omitempty"` // "" while running
	Error   string             `json:"error,omitempty"`
	Result  json.RawMessage    `json:"result,omitempty"`
}

// fleetMirror is one fleet's persistent model.
type fleetMirror struct {
	Created     fleetCreatedRec `json:"created"`
	Provisioned bool            `json:"provisioned"`
	Runs        []*runMirror    `json:"runs,omitempty"`
}

// campaignMirror is one campaign's persistent model: the spec it started
// with, every per-seed outcome journaled so far (in seed order), and its
// terminal state once settled.
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

// store is the server's durability engine: a WAL plus the mirror, and the
// watcher goroutines that feed journal events into it.
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

	// queue holds coalesced hot records (campaign seed outcomes) already
	// applied to the mirror but not yet written to the WAL. One AppendBatch
	// write flushes it when it reaches groupCommitAt entries, before any
	// non-coalesced record is appended, before every snapshot, and on close,
	// so log order always equals mirror order. A hard crash can lose the
	// queued tail, the durability window fsync batching already allows:
	// recovery then sees fewer outcomes, never reordered or corrupted ones.
	queue []wal.BatchEntry
}

// groupCommitAt is the store's batching grain: how many coalesced hot
// records may queue before one WAL batch write flushes them, and how many
// trace events a scenario run hashes between two scenario.progress
// checkpoints. Either way a hard crash loses at most groupCommitAt-1.
const groupCommitAt = 64

// coalesced reports whether a record type is high-frequency enough to ride
// the group-commit queue rather than paying a WAL write per record. A
// progress checkpoint is not: queued, it would reach the file only when its
// run settles, and the replay oracle would have nothing to verify.
func coalesced(typ string) bool { return typ == recCampaignSeed }

// RecoveryReport summarizes what Open recovered from a data directory.
type RecoveryReport struct {
	DataDir          string `json:"data_dir"`
	SnapshotSeq      uint64 `json:"snapshot_seq"`
	Records          int    `json:"records"` // WAL records applied after the snapshot
	Repaired         bool   `json:"repaired"`
	DroppedBytes     int64  `json:"dropped_bytes"`
	Deployments      int    `json:"deployments"`
	Rebuilt          int    `json:"rebuilt"`     // ready deployments rebuilt live
	Archived         int    `json:"archived"`    // terminal deployments reloaded as records
	Interrupted      int    `json:"interrupted"` // mid-build at crash, reconciled to failed
	Resumed          int    `json:"resumed"`     // mid-build at crash, restarted
	OpsReplayed      int    `json:"ops_replayed"`
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

// openStore opens (or creates) the tenant's WAL under dir, rebuilds the
// mirror from the newest snapshot plus the log tail, and materializes the
// tenant's live resources from it. Recovery is synchronous: when openStore
// returns, every recovered resource is queryable and every in-flight
// scenario run has been replayed and verified.
func openStore(s *Server, tn *tenant, dir string, cfg Config) (*RecoveryReport, error) {
	start := time.Now()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("api: opening store: %w", err)
	}
	snapEvery := cfg.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = DefaultSnapshotEvery
	}
	st := &store{
		srv:       s,
		tn:        tn,
		log:       l,
		snapEvery: snapEvery,
		resume:    cfg.ResumeInterrupted,
		m:         newMirror(),
		dirty:     len(rec.Records),
	}
	st.ctx, st.cancel = context.WithCancel(context.Background())
	report := &RecoveryReport{
		DataDir:      dir,
		SnapshotSeq:  rec.SnapshotSeq,
		Records:      len(rec.Records),
		Repaired:     rec.Repaired,
		DroppedBytes: rec.DroppedBytes,
	}
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, st.m); err != nil {
			return nil, errors.Join(fmt.Errorf("api: decoding snapshot: %w", err), l.Close())
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
			return nil, errors.Join(&recordError{Seq: r.Seq, Type: r.Type, Err: err}, l.Close())
		}
		typed.apply(st.m)
	}
	// Attach before materializing: recovery replays in-flight scenario runs
	// through the same executeRun the live path uses, and that path finds
	// its observer (and journals replay progress) through the tenant's store.
	tn.store = st
	if err := st.materialize(report); err != nil {
		tn.store = nil
		return nil, errors.Join(err, l.Close())
	}
	report.Elapsed = time.Since(start)
	return report, nil
}

// merge folds another tenant's recovery report into this aggregate, for
// the multi-tenant Open summary: counts sum, repair flags accumulate, and
// the snapshot sequence reports the furthest-ahead shard.
func (r *RecoveryReport) merge(o *RecoveryReport) {
	if o.SnapshotSeq > r.SnapshotSeq {
		r.SnapshotSeq = o.SnapshotSeq
	}
	r.Records += o.Records
	r.Repaired = r.Repaired || o.Repaired
	r.DroppedBytes += o.DroppedBytes
	r.Deployments += o.Deployments
	r.Rebuilt += o.Rebuilt
	r.Archived += o.Archived
	r.Interrupted += o.Interrupted
	r.Resumed += o.Resumed
	r.OpsReplayed += o.OpsReplayed
	r.Fleets += o.Fleets
	r.Runs += o.Runs
	r.Replayed += o.Replayed
	r.ReplayMismatches += o.ReplayMismatches
	r.Campaigns += o.Campaigns
	r.CampaignsInterrupted += o.CampaignsInterrupted
	r.Elapsed += o.Elapsed
}

// close stops the store's watchers, flushes any queued group commit and
// the WAL, and closes it. Safe to call once; appends arriving afterwards
// are dropped (ErrClosed).
func (st *store) close() error {
	st.cancel()
	st.wg.Wait()
	st.mu.Lock()
	st.wrote("flush on close", "", st.flushLocked())
	st.mu.Unlock()
	return st.log.Close()
}

// flushLocked writes every queued hot record to the WAL as one group
// commit. The queue is consumed whether or not the write succeeds — the
// records are already in the mirror, and a failed batch is the same lost
// tail a failed single append always was. Callers hold st.mu.
func (st *store) flushLocked() error {
	if len(st.queue) == 0 {
		return nil
	}
	_, err := st.log.AppendBatch(st.queue)
	st.dirty += len(st.queue)
	st.queue = st.queue[:0]
	return err
}

// emit persists one record and applies it to the mirror, in one critical
// section so mirror order always matches log order, then takes a snapshot
// if the cadence says one is due. A record is marshalled, appended, and
// only then applied: the mirror takes the typed value itself (decoding is
// recovery's job alone) and holds nothing the log refused — except the hot
// types that ride the group-commit queue, applied when queued, which are
// the tail a failed flush loses. A direct append flushes the queue first,
// so on-disk order equals apply order, and is attempted even if that fails.
func (st *store) emit(typ string, rec record) {
	var data []byte
	var err error
	if settled, ok := rec.(scenarioSettledRec); ok {
		data, err = settled.encode() // json.Marshal would scan the result twice
	} else {
		data, err = json.Marshal(rec)
	}
	if err != nil {
		st.logf("store: marshal %s: %v", typ, err)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if coalesced(typ) {
		rec.apply(st.m)
		// The queued entry must own its bytes: data escapes this call.
		st.queue = append(st.queue, wal.BatchEntry{Type: typ, Data: data})
		if len(st.queue) < groupCommitAt || !st.wrote("flush", "", st.flushLocked()) {
			return
		}
	} else {
		st.wrote("flush before ", typ, st.flushLocked())
		if _, err := st.log.Append(typ, data); !st.wrote("append ", typ, err) {
			return
		}
		rec.apply(st.m)
		st.dirty++
	}
	if st.dirty >= st.snapEvery {
		st.wrote("snapshot", "", st.snapshotLocked())
	}
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
// the history it covers. A snapshot must capture only logged records, so
// the queue is flushed first — otherwise recovery would re-apply the
// queued tail on top of a mirror image that already contains it. Callers
// hold st.mu.
func (st *store) snapshotLocked() error {
	if err := st.flushLocked(); err != nil {
		return err
	}
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
// recovery before any watcher exists.

func (r depCreatedRec) apply(m *mirror) {
	m.Deployments[r.ID] = &depMirror{Created: r}
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
			d.Events = nil
		} else if r.Events != nil {
			d.Events = r.Events
		}
	}
}

func (r depDeletedRec) apply(m *mirror) { delete(m.Deployments, r.ID) }

func (r clusterOpRec) apply(m *mirror) {
	if d := m.Deployments[r.ID]; d != nil {
		d.Ops = append(d.Ops, r)
	}
}

func (r fleetCreatedRec) apply(m *mirror) {
	m.Fleets[r.ID] = &fleetMirror{Created: r, Provisioned: r.Provisioned}
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
		f.Runs = append(f.Runs, &runMirror{Started: r})
	}
}

func (r scenarioProgressRec) apply(m *mirror) {
	if run := m.findRun(r.FleetID, r.RunID); run != nil {
		run.Cursor, run.Hash = r.Cursor, r.Hash
	}
}

func (r scenarioSettledRec) apply(m *mirror) {
	if run := m.findRun(r.FleetID, r.RunID); run != nil {
		run.State, run.Error, run.Result = r.State, r.Error, r.Result
	}
}

func (r campaignStartedRec) apply(m *mirror) {
	m.Campaigns[r.ID] = &campaignMirror{Started: r}
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
	if err := json.Unmarshal(data, rec); err != nil {
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

// watchDeployment waits for a live deployment's build to settle and
// records the terminal state — with the journal the handle then serves when
// the build did not end ready, which is what the archived path reloads.
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
		rec := depSettledRec{ID: dep.ID, State: string(final)}
		if err := dep.Handle.Err(); err != nil {
			rec.Error = err.Error()
		}
		if final != xcbc.StateReady {
			rec.Events, _ = dep.events(page{})
		}
		st.emit(recDeploymentSettled, rec)
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

// rebuildAhead is how many builds per SDK pool worker recovery keeps
// started ahead of the deployment it is waiting on: enough that no worker
// idles while the recovering goroutine replays ops, few enough that a large
// DataDir does not park a goroutine per deployment on the pool.
const rebuildAhead = 4

// rebuild is a build recovery started ahead of its deployment's turn.
type rebuild struct {
	h   *xcbc.Handle
	err error
}

// materialize turns the recovered mirror into the tenant's live
// resources. It runs with the server constructed but not yet serving.
func (st *store) materialize(report *RecoveryReport) (err error) {
	tn := st.tn

	// Copy what is needed out of the mirror before spawning watchers that
	// mutate it.
	st.mu.Lock()
	var deps []depMirror
	for _, d := range byNum(st.m.Deployments) {
		cp := *d
		cp.Events = slices.Clone(d.Events)
		cp.Ops = slices.Clone(d.Ops)
		deps = append(deps, cp)
	}
	var fleets []fleetMirror
	for _, f := range byNum(st.m.Fleets) {
		cp := *f
		cp.Runs = make([]*runMirror, len(f.Runs))
		for i, r := range f.Runs {
			rc := *r
			cp.Runs[i] = &rc
		}
		fleets = append(fleets, cp)
	}
	var camps []campaignMirror
	for _, c := range byNum(st.m.Campaigns) {
		cp := *c
		cp.Outcomes = slices.Clone(c.Outcomes)
		camps = append(camps, cp)
	}
	// The mirror remembers the highest ID ever issued, deleted or not.
	tn.deployments.advance(st.m.NextID)
	tn.fleets.advance(st.m.NextFleetID)
	tn.campaigns.advance(st.m.NextCampaignID)
	st.mu.Unlock()

	// Deployments first (fleets do not depend on them). The builds recovery
	// needs — a ready deployment's rebuild, an interrupted one's resume —
	// start on the SDK pool a window ahead of the deployment being recovered;
	// everything with an order (waiting, replaying ops, restoring, counting,
	// journaling a reconciliation) stays on this goroutine, in ID order.
	report.Deployments = len(deps)
	builds := make([]rebuild, len(deps))
	started := 0
	defer func() {
		if err == nil {
			return
		}
		// A failed Open leaves nothing it started running. Watchers go first,
		// so none of them journals the cancellation of a resumed build.
		st.cancel()
		st.wg.Wait()
		for _, b := range builds[:started] {
			if b.h != nil {
				b.h.Cancel()
			}
		}
	}()
	window := rebuildAhead * xcbc.PoolWorkers()
	for i, m := range deps {
		for ; started < min(i+1+window, len(deps)); started++ {
			next := &deps[started]
			if next.State == string(xcbc.StateReady) || next.State == "" && st.resume {
				b := &builds[started]
				b.h, _, b.err = st.srv.startBuild(next.Created.Req)
			}
		}
		dep, err := st.recoverDeployment(m, builds[i], report)
		if err != nil {
			return err
		}
		tn.deployments.restore(dep.ID, dep)
	}
	report.Fleets = len(fleets)
	for _, m := range fleets {
		fr, err := st.recoverFleet(m, report)
		if err != nil {
			return err
		}
		tn.fleets.restore(fr.ID, fr)
	}
	for _, m := range camps {
		cr := st.recoverCampaign(m, report)
		tn.campaigns.restore(cr.ID, cr)
	}
	return nil
}

// recoverDeployment materializes one deployment from its mirror entry and
// the build materialize started for it, if its state called for one.
func (st *store) recoverDeployment(m depMirror, b rebuild, report *RecoveryReport) (*deployment, error) {
	dep := &deployment{depCreatedRec: m.Created}
	archive := func(state, errMsg string) {
		m.State, m.Error = state, errMsg
		dep.arch = &m
		report.Archived++
	}
	switch m.State {
	case string(xcbc.StateReady):
		// Rebuild deterministically from the recorded request, then replay
		// the recorded day-2 operations in log order. A rebuild that does
		// not land ready again (it should: the simulated substrate is
		// deterministic for a request that already succeeded once) archives
		// as failed rather than presenting a half-true cluster.
		if b.err != nil {
			archive(string(xcbc.StateFailed), "recovery rebuild: "+b.err.Error())
			return dep, nil
		}
		h := b.h
		if _, err := h.Wait(st.ctx); err != nil {
			h.Cancel()
			archive(string(xcbc.StateFailed), "recovery rebuild settled "+string(h.Status())+": "+err.Error())
			return dep, nil
		}
		dep.Handle = h
		report.Rebuilt++
		cl, err := h.Cluster()
		if err != nil {
			return nil, fmt.Errorf("api: recovering %s: %w", dep.ID, err)
		}
		for _, op := range m.Ops {
			if err := replayOp(cl, op); err != nil {
				st.logf("store: %s: replaying %s: %v", dep.ID, op.Op, err)
				continue
			}
			report.OpsReplayed++
		}
	case string(xcbc.StateFailed), string(xcbc.StateCancelled):
		archive(m.State, m.Error)
	default:
		// No settled record: the server died with this build in flight.
		if st.resume {
			if b.err != nil {
				archive(string(xcbc.StateFailed), "recovery resume: "+b.err.Error())
				break
			}
			dep.Handle = b.h
			st.watchDeployment(dep)
			report.Resumed++
			break
		}
		msg := "interrupted: the server terminated while this deployment was building"
		st.emit(recDeploymentSettled, depSettledRec{
			ID: dep.ID, State: string(xcbc.StateFailed), Error: msg,
		})
		m.State, m.Error = string(xcbc.StateFailed), msg
		dep.arch = &m
		report.Interrupted++
	}
	return dep, nil
}

// recoverFleet materializes one fleet and its scenario-run history.
func (st *store) recoverFleet(m fleetMirror, report *RecoveryReport) (*fleetRecord, error) {
	fl, err := xcbc.NewFleet(fleetSpecOf(m.Created.Req))
	if err != nil {
		return nil, fmt.Errorf("api: recovering fleet %s: %w", m.Created.ID, err)
	}
	fr := newFleetRecord(m.Created, fl, st.tn)

	// An in-flight run that arms kickstart faults must replay against a
	// fleet whose builds have not started; its provision phase will build
	// the members itself.
	var inflight *runMirror
	for _, run := range m.Runs {
		if run.State == "" {
			inflight = run
		}
	}
	var inflightSc *xcbc.Scenario
	if inflight != nil {
		if inflightSc, err = xcbc.LoadScenario(inflight.Started.Scenario); err != nil {
			return nil, fmt.Errorf("api: recovering run %s/%s: %w", fr.ID, inflight.Started.RunID, err)
		}
	}
	if m.Provisioned && (inflightSc == nil || !inflightSc.RequiresFreshFleet()) {
		if err := fl.Provision(st.ctx); err != nil {
			return nil, fmt.Errorf("api: re-provisioning fleet %s: %w", fr.ID, err)
		}
		if err := fl.Wait(st.ctx); err != nil {
			return nil, fmt.Errorf("api: re-provisioning fleet %s: %w", fr.ID, err)
		}
	}

	for _, rm := range m.Runs {
		run := &scenarioRun{
			ID:       rm.Started.RunID,
			Scenario: rm.Started.Name,
			Created:  rm.Started.Created,
			done:     make(chan struct{}),
		}
		if rm.State != "" {
			// Settled before the crash: reload the full recorded result.
			run.state = rm.State
			if rm.Error != "" {
				run.err = errors.New(rm.Error)
			}
			if len(rm.Result) > 0 {
				if run.result, err = xcbc.RestoreScenarioResult(rm.Result); err != nil {
					return nil, fmt.Errorf("api: restoring run %s/%s: %w", fr.ID, run.ID, err)
				}
			}
			close(run.done)
			report.Runs++
			fr.runs.restore(run.ID, run)
			continue
		}
		// In flight at the crash: replay from the seed and verify the
		// trace prefix against the recorded cursor and hash.
		run.state = "running"
		fr.runs.restore(run.ID, run)
		fr.runLive = true
		target := &replayTarget{cursor: rm.Cursor, hash: rm.Hash}
		st.srv.executeRun(fr, run, inflightSc, target)
		report.Replayed++
		if run.state == "error" && run.err != nil && errors.Is(run.err, errReplayDiverged) {
			report.ReplayMismatches++
		}
	}
	return fr, nil
}

// errReplayDiverged marks a recovery replay whose regenerated trace did
// not reproduce the recorded prefix hash.
var errReplayDiverged = errors.New("replay diverged from the recorded trace")

// replayOp re-executes one recorded day-2 operation against a rebuilt
// cluster. Ops replay in their original order, so sequential effects (job
// IDs, poll counts, the virtual clock) land where they were.
func replayOp(cl *xcbc.Cluster, op clusterOpRec) error {
	switch op.Op {
	case "job.submit":
		if op.Job == nil {
			return errors.New("job.submit record without a job")
		}
		spec, err := jobSpecOf(*op.Job)
		if err != nil {
			return err
		}
		_, err = cl.SubmitJob(spec)
		return err
	case "job.cancel":
		return cl.CancelJob(op.JobID)
	case "advance":
		d, err := time.ParseDuration(op.Duration)
		if err != nil {
			return err
		}
		cl.Advance(d)
		return nil
	case "updates":
		policy, err := updatePolicyOf(op.Policy)
		if err != nil {
			return err
		}
		cl.CheckUpdates(policy, op.At)
		return nil
	case "metrics":
		cl.Metrics()
		return nil
	}
	return fmt.Errorf("unknown op %q", op.Op)
}

// emit journals one record against the tenant's store; a no-op on a
// memory-only server.
func (tn *tenant) emit(typ string, rec record) {
	if tn.store != nil {
		tn.store.emit(typ, rec)
	}
}

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
}

// handleStore reports durability status: whether the request's tenant has
// a data directory attached, and if so the WAL's size and the age of the
// newest snapshot.
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	tn := s.tenant(r)
	if tn.store == nil {
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
	}
	if !stats.SnapshotTime.IsZero() {
		info.SnapshotAge = s.clock().Sub(stats.SnapshotTime).Round(time.Millisecond).String()
	}
	writeJSON(w, http.StatusOK, info)
}
