package api

// The index: the mirror's three maps and each fleet row's Runs are the one
// index of what a tenant holds. apply is their only writer, and its rows',
// under st.mu and st.idx; handlers read them under st.idx's read side. A
// record that publishes or removes a resource is admitted in emit's
// critical section, before it is appended: admit checks the tenant's quota,
// a build still running or a run in flight, and gives a create its ID from
// the mirror's counter.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// admitter is a record emit admits before appending it. Handlers emit
// these records by pointer, so that a create's admit can set its ID.
type admitter interface {
	admit(st *store) error
}

// refusal is an admit error that is the client's to fix: the status its
// route answers with the error's message.
type refusal struct {
	status int
	error
}

var (
	errNoDeployment = refusal{http.StatusNotFound, errors.New("unknown deployment")}
	errNoFleet      = refusal{http.StatusNotFound, errors.New("unknown fleet")}
	errRunLive      = refusal{http.StatusConflict, errors.New("a scenario is already running on this fleet; wait for it to settle")}
	errDeleteLive   = refusal{http.StatusConflict, errors.New("a scenario is still running on this fleet; wait for it to settle before deleting")}
	// errUnsettled refuses the delete of a resource still building or
	// provisioning; its route cancels the work instead (202).
	errUnsettled = errors.New("not settled")
)

// writeRefused answers a write whose record emit refused: a quota is the
// typed 403, a refusal its own status, and anything else is the log's
// refusal, 503: the tenant's log has failed, and stays failed.
func writeRefused(w http.ResponseWriter, err error) {
	var quota *quotaError
	var rf refusal
	switch {
	case errors.As(err, &quota):
		writeJSON(w, http.StatusForbidden, quota)
	case errors.As(err, &rf):
		writeError(w, rf.status, rf.Error())
	default:
		writeError(w, http.StatusServiceUnavailable, "the write was not journaled: "+err.Error())
	}
}

// nextID is the ID a create of one kind gets: prefix and the kind's counter
// plus one, unless the tenant already holds max of it (0 = unlimited).
func nextID(prefix, kind string, held, next, max int) (string, error) {
	if max > 0 && held >= max {
		return "", &quotaError{
			Err:      fmt.Sprintf("%s quota exceeded: %d of %d in use", kind, held, max),
			Code:     "quota_exceeded",
			Resource: kind,
			Limit:    max,
			InUse:    held,
		}
	}
	return prefix + strconv.Itoa(next+1), nil
}

func (r *depCreatedRec) admit(st *store) (err error) {
	r.ID, err = nextID("d", "deployments", len(st.m.Deployments), st.m.NextID, st.tn.quotas.MaxDeployments)
	return err
}

func (r *fleetCreatedRec) admit(st *store) (err error) {
	r.ID, err = nextID("f", "fleets", len(st.m.Fleets), st.m.NextFleetID, st.tn.quotas.MaxFleets)
	return err
}

// admit counts only running campaigns against the quota, so settling frees
// a slot, as a delete does for the other kinds; none deletes a campaign.
func (r *campaignStartedRec) admit(st *store) (err error) {
	running := 0
	for _, c := range st.m.Campaigns {
		if c.State == "" {
			running++
		}
	}
	r.ID, err = nextID("c", "campaigns", running, st.m.NextCampaignID, st.tn.quotas.MaxCampaigns)
	return err
}

// admit numbers a run by its place in the fleet's Runs, from s1.
func (r *scenarioStartedRec) admit(st *store) error {
	f := st.m.Fleets[r.FleetID]
	switch {
	case f == nil:
		return errNoFleet
	case f.runLive():
		return errRunLive
	}
	r.RunID = "s" + strconv.Itoa(len(f.Runs)+1)
	return nil
}

// admit refuses an op whose deployment was deleted while its route ran it.
func (r *clusterOpRec) admit(st *store) error {
	if st.m.Deployments[r.ID] != r.dep {
		return errNoDeployment
	}
	return nil
}

func (r *depDeletedRec) admit(st *store) error {
	d := st.m.Deployments[r.ID]
	if d == nil {
		return errNoDeployment
	}
	if _, _, _, settled := st.status(d); !settled {
		return errUnsettled
	}
	return nil
}

func (r *fleetDeletedRec) admit(st *store) error {
	f := st.m.Fleets[r.ID]
	switch {
	case f == nil:
		return errNoFleet
	case f.runLive():
		return errDeleteLive
	case f.fl.Provisioned() && !f.fl.Status().Settled(): // never provisioned: nothing to cancel
		return errUnsettled
	}
	return nil
}

// lookup reads index[id] under the store's read lock; nil if it has none.
func lookup[T any](st *store, index map[string]*T, id string) *T {
	st.idx.RLock()
	defer st.idx.RUnlock()
	return index[id]
}

// found is lookup of the route's {id}: nil, answered 404 "unknown kind",
// if the tenant holds none.
func found[T any](w http.ResponseWriter, r *http.Request, st *store, index map[string]*T, kind string) *T {
	row := lookup(st, index, r.PathValue("id"))
	if row == nil {
		writeError(w, http.StatusNotFound, "unknown "+kind)
	}
	return row
}

// pageOf selects one page of a mirror index under the store's read lock:
// order by numeric ID suffix ("d2" before "d10"), skip IDs at or below the
// cursor, take up to limit. It returns the page and the next cursor (the
// last returned ID's number; the cursor itself when the page is empty, so
// clients can poll a stable tail).
func pageOf[T any](st *store, index map[string]*T, pg page) ([]*T, int) {
	st.idx.RLock()
	defer st.idx.RUnlock()
	ids := byNum(index, pg.cursor)
	ids = ids[:min(len(ids), pg.limit)]
	out := make([]*T, len(ids))
	next := pg.cursor
	for i, id := range ids {
		out[i] = index[id]
		next = numSuffix(id)
	}
	return out, next
}
