package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"clustereval/internal/journal"
	"clustereval/internal/service"
)

// This file is the fleet half of journal replication. The service layer
// (internal/service/replication.go) knows how to ship framed journal
// records to a peer set and refuse submits that miss their write quorum;
// the fleet layer decides WHO those peers are (deterministic ring
// successors), keeps every primary's peer set pointed at the children's
// current ephemeral ports, and — after a disk loss — rebuilds the
// primary's journal from the best surviving follower replica so the
// revived child replays under its original identity.

// ErrNoReplica reports that no follower holds any replica of a shard's
// journal — promotion has nothing to recover from, and a fresh journal
// is the correct (empty) restart state.
var ErrNoReplica = errors.New("fleet: no follower holds a replica")

// ReplicationEnabled reports whether this fleet ships journal replicas
// (Replicas > 1). With replication off every path below is a no-op and
// the fleet behaves exactly like the unreplicated seed.
func (c *Coordinator) ReplicationEnabled() bool { return c.cfg.Replicas > 1 }

// Followers returns the shards replicating name's journal: its
// Replicas-1 distinct ring successors, in ring order. Deterministic for
// a given fleet membership, and independent of liveness — a follower
// that is briefly down keeps its assignment (and its on-disk replica).
func (c *Coordinator) Followers(name string) []string {
	if !c.ReplicationEnabled() {
		return nil
	}
	return c.ring.Successors(name, c.cfg.Replicas-1)
}

// SyncReplication (re)points every live shard's replication at its
// followers' current addresses. The supervisor calls it after each child
// banner: children restart on ephemeral ports, so any announce can
// invalidate peer sets fleet-wide. Push failures are counted, not fatal
// — a shard that cannot be synced keeps its previous peer set, and a
// stale peer URL surfaces as a missed quorum (503, retryable) rather
// than silent data loss.
func (c *Coordinator) SyncReplication(ctx context.Context) {
	if !c.ReplicationEnabled() {
		return
	}
	for _, st := range c.liveShards() {
		st.mu.Lock()
		name := st.decl.Name
		st.mu.Unlock()
		if err := c.pushPeers(ctx, name); err != nil {
			c.replSyncErrors.Inc()
		}
	}
}

// pushPeers PUTs one primary's follower set. Followers are included as
// long as they are not permanently dead and have ever announced an
// address — a down-but-restarting follower keeps its (possibly stale)
// URL on purpose, trading availability for durability: ships to it fail,
// submits bounce with 503 until the supervisor brings it back, and
// nothing is acknowledged on fewer copies than the quorum promises.
func (c *Coordinator) pushPeers(ctx context.Context, name string) error {
	st := c.shard(name)
	if st == nil {
		return fmt.Errorf("fleet: unknown shard %q", name)
	}
	peers := []service.Peer{}
	for _, f := range c.Followers(name) {
		fst := c.shard(f)
		if fst == nil {
			continue
		}
		fst.mu.Lock()
		url := fst.baseURL
		dead := fst.dead
		fst.mu.Unlock()
		if dead || url == "" {
			continue
		}
		peers = append(peers, service.Peer{Shard: f, URL: url})
	}
	body, err := json.Marshal(service.PeerSet{Quorum: c.cfg.AckQuorum, Peers: peers})
	if err != nil {
		return fmt.Errorf("fleet: encoding peer set for %s: %w", name, err)
	}
	reqCtx, cancel := context.WithTimeout(ctx, c.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPut, st.url()+"/v1/replication/peers", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: building peer push for %s: %w", name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: pushing peers to %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("fleet: shard %s rejected peer set: HTTP %d: %s", name, resp.StatusCode, snippet)
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	return nil
}

// PromoteShard rebuilds a shard's lost journal from the best follower
// replica: every follower's replica-<shard>.wal is read, the one holding
// the highest sequence wins (ties keep the earliest successor), and its
// records are rewritten as a plain journal at the shard's declared
// JournalPath — the next child spawn replays it through the normal
// durable-recovery path under the shard's original identity. Returns the
// records recovered and the follower they came from; ErrNoReplica when
// no follower has anything.
//
// Promotion reads follower replicas directly from disk: this fleet's
// children all run on the supervisor's host, the same assumption the
// journal-handoff path already makes.
func (c *Coordinator) PromoteShard(name string) (int, string, error) {
	st := c.shard(name)
	if st == nil {
		return 0, "", fmt.Errorf("fleet: unknown shard %q", name)
	}
	if !c.ReplicationEnabled() {
		return 0, "", fmt.Errorf("%w: replication is disabled", ErrNoReplica)
	}
	st.mu.Lock()
	journalPath := st.decl.JournalPath
	dead := st.dead
	st.mu.Unlock()
	if dead {
		return 0, "", fmt.Errorf("fleet: shard %s is permanently dead", name)
	}
	if journalPath == "" {
		return 0, "", fmt.Errorf("fleet: shard %s declares no journal", name)
	}

	var bestFrom, bestPath string
	var bestSeq uint64
	found := false
	for _, f := range c.Followers(name) {
		fst := c.shard(f)
		if fst == nil {
			continue
		}
		fst.mu.Lock()
		dir := fst.decl.DataDir
		fst.mu.Unlock()
		if dir == "" {
			continue
		}
		path := journal.ReplicaPath(dir, name)
		if _, err := os.Stat(path); err != nil {
			continue
		}
		_, lastSeq, err := journal.ReadReplica(path)
		if err != nil {
			// A damaged replica loses the vote; another follower may
			// still hold a clean copy.
			continue
		}
		if !found || lastSeq > bestSeq {
			found, bestFrom, bestPath, bestSeq = true, f, path, lastSeq
		}
	}
	if !found {
		return 0, "", fmt.Errorf("%w of shard %s", ErrNoReplica, name)
	}
	if err := os.MkdirAll(filepath.Dir(journalPath), 0o755); err != nil {
		return 0, "", fmt.Errorf("fleet: recreating shard %s data dir: %w", name, err)
	}
	n, err := journal.PromoteReplica(bestPath, journalPath)
	if err != nil {
		return 0, "", fmt.Errorf("fleet: promoting %s replica held by %s: %w", name, bestFrom, err)
	}
	c.promotions.Inc()
	c.promotedRecs.Add(uint64(n))
	return n, bestFrom, nil
}
