// Client-side shard routing.  A Sharded wraps one Client per plpd process
// and routes each transaction to the shard owning its keys, using a cached
// copy of the cluster's versioned shard map (package shard).  The cache is
// refreshed lazily: a server refusing a request with a wrong-shard error
// attaches its current map to the refusal, so the router adopts it and
// forwards the request in the same call — the cross-process mirror of the
// executor's epoch-checked mis-route forwarding.
//
// Routing places a transaction's plan by the servers' own rule
// (shard.Map.Placement): a plan owned by one shard goes there, and one
// spanning shards goes whole to one of its owners, which coordinates the
// cross-shard commit server-side.  Scans fan out to every shard
// intersecting the range and concatenate in shard (= key) order.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"plp/keys"
	"plp/plan"
	"plp/shard"
	"plp/wire"
)

// ErrNoShardMap is returned when no seed server answered with a shard map.
var ErrNoShardMap = errors.New("client: no shard map available")

// ShardMap fetches the server's current shard map; a server running
// unsharded returns an error.
func (c *Client) ShardMap(ctx context.Context) (*shard.Map, error) {
	f := c.submitAsync(ctx, nil, wire.EncodeShardMapRequest)
	resp, err := f.Wait(ctx)
	if err != nil && errors.Is(err, ctx.Err()) && ctx.Err() != nil {
		c.abandon(f)
	}
	if resp == nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("client: shard map: %s", resp.Err)
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("client: malformed shard map response")
	}
	return shard.Parse(resp.Results[0].Value)
}

// Sharded is a routing client over a sharded plpd cluster.
//
// When the map carries replica sets, read-only transactions rotate across a
// shard's primary and followers (replica-aware routing) while writes always
// target the primary.  A write that lands on a demoted ex-primary comes back
// as a follower refusal carrying the refuser's current map; the router
// adopts it and re-routes, so clients follow promotions with no operator
// involvement.
type Sharded struct {
	opts DialOptions

	// rr spreads read-only transactions across a shard's primary and
	// replicas.
	rr atomic.Uint64

	mu    sync.Mutex
	m     *shard.Map
	conns map[string]*Client // by address: survives shard moves between addrs
}

// DialSharded connects to the cluster through the seed addresses: the first
// seed that answers with a shard map wins, and the map names every member.
// opts applies to every per-shard connection the router opens.
func DialSharded(ctx context.Context, seeds []string, opts *DialOptions) (*Sharded, error) {
	s := &Sharded{conns: make(map[string]*Client)}
	if opts != nil {
		s.opts = *opts
	}
	var lastErr error = ErrNoShardMap
	for _, addr := range seeds {
		c, err := DialContext(ctx, addr, &s.opts)
		if err != nil {
			lastErr = err
			continue
		}
		m, err := c.ShardMap(ctx)
		if err != nil {
			lastErr = err
			_ = c.Close()
			continue
		}
		s.m = m
		s.conns[addr] = c
		return s, nil
	}
	return nil, fmt.Errorf("client: dialing sharded cluster: %w", lastErr)
}

// Map returns the router's cached shard map.
func (s *Sharded) Map() *shard.Map {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m
}

// Refresh fetches the shard map from every reachable member — primaries
// and replicas (a dead primary is exactly when the replicas' copy matters)
// — and adopts the newest if it is newer than the cached one.  Asking only
// the first member that answers is not enough: after a failover a
// still-following replica serves the stale map the promoted one replaced.
func (s *Sharded) Refresh(ctx context.Context) error {
	m := s.Map()
	addrs := make([]string, 0, len(m.Shards))
	for _, sh := range m.Shards {
		addrs = append(addrs, sh.Addr)
	}
	for _, sh := range m.Shards {
		for _, r := range sh.Replicas {
			addrs = append(addrs, r.Addr)
		}
	}
	var lastErr error = ErrNoShardMap
	var newest *shard.Map
	for _, addr := range addrs {
		c, err := s.clientFor(ctx, addr)
		if err != nil {
			lastErr = err
			continue
		}
		nm, err := c.ShardMap(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		if newest == nil || nm.Version > newest.Version {
			newest = nm
		}
	}
	if newest == nil {
		return fmt.Errorf("client: refreshing shard map: %w", lastErr)
	}
	s.adopt(newest)
	return nil
}

// adopt installs a map if its version is not older than the cached one.
func (s *Sharded) adopt(m *shard.Map) {
	if m == nil || m.Validate() != nil {
		return
	}
	s.mu.Lock()
	if m.Version >= s.m.Version {
		s.m = m
	}
	s.mu.Unlock()
}

// Close closes every per-shard connection.
func (s *Sharded) Close() error {
	s.mu.Lock()
	conns := s.conns
	s.conns = make(map[string]*Client)
	s.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clientFor returns (dialing if needed) the connection to addr.
func (s *Sharded) clientFor(ctx context.Context, addr string) (*Client, error) {
	s.mu.Lock()
	c := s.conns[addr]
	s.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := DialContext(ctx, addr, &s.opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if prev := s.conns[addr]; prev != nil {
		s.mu.Unlock()
		_ = c.Close()
		return prev, nil
	}
	s.conns[addr] = c
	s.mu.Unlock()
	return c, nil
}

// dropClient discards a (presumably broken) connection so the next call
// redials.
func (s *Sharded) dropClient(addr string, c *Client) {
	s.mu.Lock()
	if s.conns[addr] == c {
		delete(s.conns, addr)
	}
	s.mu.Unlock()
	_ = c.Close()
}

// route returns the shard a plan is sent to: the one owning its ops, or
// when they span shards one of their owners, which coordinates.  A plan
// with no statically keyed op goes to the first shard.  Read-only plans
// rotate across that shard's primary and replicas; turn selects the
// rotation slot, and callers advance it per request (round robin) and per
// retry (so a dead follower's slot is skipped on the next attempt).
// Writes always go to the primary.
func route(m *shard.Map, p *plan.Plan, turn uint64) string {
	owner, _ := m.Placement(p, m.Shards[0].ID)
	sh, _ := m.ByID(owner)
	if p.Writes() {
		return sh.Addr
	}
	slot := turn % (uint64(len(sh.Replicas)) + 1)
	if slot == 0 {
		return sh.Addr
	}
	return sh.Replicas[slot-1].Addr
}

// maxRouteAttempts bounds the refresh-and-forward loop: each wrong-shard
// refusal or transport error consumes one attempt.
const maxRouteAttempts = 4

// refusalMap extracts the shard map a refusing server attached to its
// response (nil when absent or unparseable).
func refusalMap(resp *wire.Response) *shard.Map {
	if resp == nil {
		return nil
	}
	for _, r := range resp.Results {
		if len(r.Value) == 0 {
			continue
		}
		if m, err := shard.Parse(r.Value); err == nil {
			return m
		}
	}
	return nil
}

// DoContext routes and executes the transaction.  Wrong-shard refusals
// adopt the refusing server's map and forward; transport errors redial.
// Read-only transactions rotate across the owning shard's primary and
// replicas; writes go to the primary, and a follower refusal (the primary
// moved) adopts the refuser's map and follows the promotion.
func (s *Sharded) DoContext(ctx context.Context, t *Txn) (*wire.Response, error) {
	var lastErr error
	readonly := !t.p.Writes()
	turn := s.rr.Add(1)
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Advancing the turn by attempt walks a read's rotation past members
		// that just failed, ending back at the primary.
		addr := route(s.Map(), &t.p, turn+uint64(attempt))
		c, err := s.clientFor(ctx, addr)
		if err != nil {
			// The member is unreachable — possibly a dead primary that has
			// since been failed over.  Best-effort refresh through whoever
			// still answers so the next attempt sees the promotion.
			_ = s.Refresh(ctx)
			lastErr = err
			continue
		}
		resp, err := c.DoContext(ctx, t)
		if err != nil && IsFollowerRefusal(err) {
			if readonly {
				// A follower refused a read — it is mid re-seed and its
				// engine is not yet consistent.  Rotate to the next member;
				// adopt any map the refusal carries in case the topology
				// moved too.
				if nm := refusalMap(resp); nm != nil {
					s.adopt(nm)
				}
				lastErr = err
				continue
			}
			// The write landed on a follower: the primary moved under our
			// map.  The refusal carries the refuser's current map — adopt it
			// and re-route to the new primary.
			if nm := refusalMap(resp); nm != nil {
				s.adopt(nm)
			} else if rerr := s.Refresh(ctx); rerr != nil {
				return resp, fmt.Errorf("%v (map refresh failed: %w)", err, rerr)
			}
			lastErr = err
			continue
		}
		if resp != nil && wire.IsWrongShard(resp.Err) {
			// The refusal carries the server's current map: adopt it and
			// re-route.  A parse failure falls back to an explicit fetch.
			if nm := refusalMap(resp); nm != nil {
				s.adopt(nm)
			} else if rerr := s.Refresh(ctx); rerr != nil {
				return resp, fmt.Errorf("%s (map refresh failed: %w)", resp.Err, rerr)
			}
			lastErr = err
			continue
		}
		if err != nil && resp == nil && !errors.Is(err, ctx.Err()) {
			// Transport failure: drop the poisoned connection and retry on a
			// fresh one.  NOTE a request that died mid-flight may have
			// executed; like any network client, the retry is at-least-once
			// for non-idempotent writes.  The peer may also be gone for good
			// (SIGKILLed primary), so refresh the map in case a failover
			// re-homed the shard.
			s.dropClient(addr, c)
			_ = s.Refresh(ctx)
			lastErr = err
			continue
		}
		return resp, err
	}
	return nil, fmt.Errorf("client: routing failed after %d attempts: %w", maxRouteAttempts, lastErr)
}

// Do routes and executes the transaction with no deadline; see DoContext.
func (s *Sharded) Do(t *Txn) (*wire.Response, error) {
	return s.DoContext(context.Background(), t)
}

// Get reads one record from its owning shard; missing keys return
// ErrNotFound.
func (s *Sharded) Get(table string, key []byte) ([]byte, error) {
	return s.GetContext(context.Background(), table, key)
}

// GetContext reads one record under a context.
func (s *Sharded) GetContext(ctx context.Context, table string, key []byte) ([]byte, error) {
	resp, err := s.DoContext(ctx, NewTxn().Get(table, key))
	if err != nil {
		return nil, err
	}
	res := resp.Results[0]
	if !res.Found {
		return nil, fmt.Errorf("%w: %s/%x", ErrNotFound, table, key)
	}
	return res.Value, nil
}

// Insert adds one record on its owning shard.
func (s *Sharded) Insert(table string, key, value []byte) error {
	_, err := s.Do(NewTxn().Insert(table, key, value))
	return err
}

// Update overwrites one record on its owning shard.
func (s *Sharded) Update(table string, key, value []byte) error {
	_, err := s.Do(NewTxn().Update(table, key, value))
	return err
}

// Upsert inserts or overwrites one record on its owning shard.
func (s *Sharded) Upsert(table string, key, value []byte) error {
	_, err := s.Do(NewTxn().Upsert(table, key, value))
	return err
}

// Delete removes one record from its owning shard.
func (s *Sharded) Delete(table string, key []byte) error {
	_, err := s.Do(NewTxn().Delete(table, key))
	return err
}

// Scan runs a bounded range scan of [lo, hi) across every shard whose range
// intersects it, concatenating the per-shard results — shards are ordered
// by key range, so the concatenation is in key order.  A nil hi scans to
// the end; limit 0 selects the server default (applied per shard).
func (s *Sharded) Scan(table string, lo, hi []byte, limit int) ([]wire.ScanEntry, error) {
	return s.ScanContext(context.Background(), table, lo, hi, limit)
}

// ScanContext runs a cross-shard range scan under a context.
func (s *Sharded) ScanContext(ctx context.Context, table string, lo, hi []byte, limit int) ([]wire.ScanEntry, error) {
	m := s.Map()
	var out []wire.ScanEntry
	for i, sh := range m.Shards {
		var shardLo []byte
		if i > 0 {
			shardLo = m.Shards[i-1].End
		}
		if len(hi) > 0 && shardLo != nil && keys.Compare(hi, shardLo) <= 0 {
			break // past the end of the requested range
		}
		if sh.End != nil && keys.Compare(lo, sh.End) >= 0 {
			continue // before the start of the requested range
		}
		c, err := s.clientFor(ctx, sh.Addr)
		if err != nil {
			return nil, fmt.Errorf("client: scan shard %d: %w", sh.ID, err)
		}
		// Ask each shard only for what the global limit still allows:
		// rows beyond it would be fetched, shipped, and then truncated.
		remaining := limit
		if limit > 0 {
			remaining = limit - len(out)
		}
		entries, err := c.ScanContext(ctx, table, lo, hi, remaining)
		if err != nil {
			return nil, fmt.Errorf("client: scan shard %d: %w", sh.ID, err)
		}
		out = append(out, entries...)
		if limit > 0 && len(out) >= limit {
			return out[:limit], nil
		}
	}
	return out, nil
}
