package experiment

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/broker"
	"repro/internal/faultnet"
	"repro/internal/overlay"
	"repro/internal/topology"
)

// treeNode is the tree driver's model of one broker: its declarative spec
// (the restart recipe; spec.Upstream is its current parent as far as the
// driver knows, "" for the root), the live handle (nil while crashed) and
// whether it was killed for good.
type treeNode struct {
	spec topology.BrokerSpec
	b    *broker.Broker
	dead bool // permanently killed: never restarted, skipped by heal checks
}

// tree is the broker-tree driver behind the membership scenarios. The
// root "phb" hosts the pubends; mids 0 and 1 hang off the root and mid
// i ≥ 2 under mid i-2, so the tree grows both wide and deep; SHB j sits
// under mid j mod mids. Brokers run on the in-process transport (names
// are addresses, stable across restarts, so orphaned children re-home by
// themselves) wrapped in a seeded faultnet decorator; clients use the raw
// transport.
type tree struct {
	dir   string
	raw   overlay.Transport
	net   *faultnet.Network
	nodes map[string]*treeNode
	order []string // start order, parents first
	mids  []string
	shbs  []string
}

// treeShape sizes a tree.
type treeShape struct {
	Mids, SHBs, Pubends int
	Seed                int64
	FaultLatency        time.Duration
	// FailoverAfter, when set, arms every non-root broker with automatic
	// fail-over: every other mid plus the root as candidate parents. The
	// loop-free adoption rule prunes own-subtree candidates at probe
	// time, so listing everyone is safe.
	FailoverAfter time.Duration
	// MidsRootFirst puts the root first in the mids' candidate lists (the
	// shortest repair path); SHBs always try the other relays first.
	MidsRootFirst bool
}

// startTree builds and starts a tree.
func startTree(dir string, s treeShape) (*tree, error) {
	raw := overlay.NewInprocNetwork(0)
	t := &tree{dir: dir, raw: raw, net: faultnet.New(raw, s.Seed), nodes: map[string]*treeNode{}}
	if s.FaultLatency > 0 {
		t.net.SetLatency(s.FaultLatency)
	}
	pubends := make([]uint32, s.Pubends)
	for i := range pubends {
		pubends[i] = uint32(i + 1)
	}
	add := func(name, upstream string) *topology.BrokerSpec {
		t.nodes[name] = &treeNode{spec: topology.BrokerSpec{
			Name:              name,
			Listen:            name, // inproc: the name is the address
			Upstream:          upstream,
			TickMillis:        2,
			DialTimeoutMillis: 500,
			LeaveGraceMillis:  80,
			Admin:             "127.0.0.1:0",
			Tuning:            topology.Tuning{Shards: 2, SubShards: 1},
		}}
		t.order = append(t.order, name)
		return &t.nodes[name].spec
	}
	add("phb", "").Pubends = pubends
	for i := 0; i < s.Mids; i++ {
		t.mids = append(t.mids, fmt.Sprintf("mid%d", i))
		up := "phb"
		if i >= 2 {
			up = t.mids[i-2]
		}
		add(t.mids[i], up)
	}
	for j := 0; j < s.SHBs; j++ {
		t.shbs = append(t.shbs, fmt.Sprintf("shb%d", j))
		spec := add(t.shbs[j], t.mids[j%s.Mids])
		spec.SHB = true
		spec.AllPubends = pubends
	}
	for _, name := range t.order[1:] {
		if spec := &t.nodes[name].spec; s.FailoverAfter > 0 {
			t.armFailover(spec, s.FailoverAfter, s.Seed, s.MidsRootFirst && !spec.SHB)
		}
	}
	for _, name := range t.order {
		if err := t.start(t.nodes[name]); err != nil {
			t.close()
			return nil, fmt.Errorf("experiment: start %s: %w", name, err)
		}
	}
	return t, nil
}

// armFailover gives a non-root spec its candidate parents, the root
// first when rootFirst, and the fail-over knobs.
func (t *tree) armFailover(spec *topology.BrokerSpec, after time.Duration, seed int64, rootFirst bool) {
	var cands []string
	for _, m := range t.mids {
		if m != spec.Name {
			cands = append(cands, m)
		}
	}
	if rootFirst {
		cands = append([]string{"phb"}, cands...)
	} else {
		cands = append(cands, "phb")
	}
	spec.Parents = cands
	spec.FailoverAfterMillis = after.Milliseconds()
	spec.PreferPrimary = true
	spec.FailoverSeed = seed
}

func (t *tree) start(n *treeNode) error {
	cfg, err := n.spec.BrokerConfig(t.dir, t.net)
	if err != nil {
		return err
	}
	n.b, err = broker.New(cfg)
	return err
}

// crash kills n's broker without a clean shutdown.
func (t *tree) crash(n *treeNode) {
	n.b.Crash()
	n.b = nil
}

// restart brings n back from its spec and data directory, retrying for up
// to ten seconds: its parent may itself be down.
func (t *tree) restart(n *treeNode) error {
	deadline := time.Now().Add(10 * time.Second)
	for t.start(n) != nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("experiment: %s did not restart", n.spec.Name)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

// healed waits up to timeout until every broker not killed for good is
// running, has every supervised link up (candidate pseudo-entries are
// advisory: a dead candidate is legitimately down) and answers /healthz
// with 200.
func (t *tree) healed(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !t.healthy() {
		if time.Now().After(deadline) {
			return fmt.Errorf("experiment: tree did not heal")
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

func (t *tree) healthy() bool {
	for _, name := range t.order {
		n := t.nodes[name]
		if n.dead {
			continue
		}
		if n.b == nil {
			return false
		}
		for _, st := range n.b.Health() {
			if !broker.IsCandidateLink(st) && st.State != overlay.LinkUp {
				return false
			}
		}
		resp, err := http.Get("http://" + n.b.AdminAddr() + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close() //nolint:errcheck,gosec // probe
		if resp.StatusCode != http.StatusOK {
			return false
		}
	}
	return true
}

// traffic starts the membership scenarios' workload: subsPerSHB durable
// auto-reconnecting `true` subscribers per SHB and a reconnecting
// publisher at rate over every pubend.
func (t *tree) traffic(subsPerSHB, rate int) (*SubscriberPool, *PublisherLoad, error) {
	pool, err := StartSubscriberPool(t.raw, t.shbs, PoolOptions{
		N:             len(t.shbs) * subsPerSHB,
		AllEvents:     true,
		AutoReconnect: true,
		AckInterval:   15 * time.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	load, err := StartPublisherLoad(t.raw, "phb", LoadOptions{
		Rate:          rate,
		Payload:       1,
		Pubends:       len(t.nodes["phb"].spec.Pubends),
		AutoReconnect: true,
	})
	if err != nil {
		pool.Stop()
		return nil, nil, err
	}
	return pool, load, nil
}

// close shuts every live broker down, children first.
func (t *tree) close() {
	for i := len(t.order) - 1; i >= 0; i-- {
		if b := t.nodes[t.order[i]].b; b != nil {
			b.Close() //nolint:errcheck,gosec // teardown
		}
	}
}
