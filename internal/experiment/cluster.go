// Package experiment builds the paper's evaluation topologies and
// workloads and runs every experiment of section 5, producing the numbers
// and time series behind each figure and table. Every scenario is declared
// once in the Scenarios table (scenarios.go); cmd/benchrunner and the
// repository-root benchmarks only look it up and run it.
//
// One Cluster (or, for the membership scenarios, one tree driver) builds
// the brokers; one SubscriberPool is the exactly-once checker every
// delivery scenario drains and judges.
//
// Scaling: the paper runs minutes-long experiments on a 6-way SMP cluster;
// this harness runs seconds-long, time-scaled versions on one machine. All
// scale knobs live in Params; the defaults reproduce the paper's shapes
// (who wins, by what factor, where crossovers fall), not its absolute
// numbers.
package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/broker"
	"repro/internal/overlay"
	"repro/internal/pubend"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// Topology describes a broker tree shaped like figure 3's configurations.
type Topology struct {
	// SHBs is the number of subscriber hosting brokers. 0 means the
	// single-broker configuration (PHB+SHB combined).
	SHBs int
	// Intermediate inserts one relay broker between the PHB and the
	// SHBs (the paper's 2-SHB and 4-SHB networks route through the
	// tree; a single intermediate reproduces the shape).
	Intermediate bool
	// Chain inserts N pure relay brokers in a line between the PHB and
	// the single SHB (the 5-hop latency topology). Mutually exclusive
	// with Intermediate; requires SHBs <= 1.
	Chain int
	// Pubends is the number of pubends hosted by the PHB (paper: 4).
	Pubends int
	// Policy is the early-release policy for every pubend (nil: retain
	// until released — the paper disables early release in section 5).
	Policy pubend.Policy
	// PublishLogLatency models the PHB's forced-log latency (E1 uses
	// 44ms; throughput experiments use 0 with group commit).
	PublishLogLatency time.Duration
	// TickInterval for all brokers (0 = 2ms, fast enough for scaled
	// experiments).
	TickInterval time.Duration
	// EventCacheSize for SHB engines (0 = default).
	EventCacheSize int
	// RelayCacheSize bounds intermediate relay caches (0 = default).
	RelayCacheSize int
	// ReadBufferQ for SHB PFS reads (0 = default 5000).
	ReadBufferQ int
	// LinkLatency adds one-way latency to every overlay hop.
	LinkLatency time.Duration
	// MetaCommitLatency models the SHB database commit cost.
	MetaCommitLatency time.Duration
	// OnCaughtUp receives catchup-duration samples from every SHB.
	OnCaughtUp func(sub vtime.SubscriberID, pub vtime.PubendID, took time.Duration)
	// Tuning is the shared performance-knob surface (shards, sub-shards,
	// catchup weight) — the same type the topology spec and
	// the broker flags consume, so the harness cannot drift from them.
	topology.Tuning
	// TCP runs the cluster over real loopback TCP sockets instead of the
	// in-process transport (the paper's deployment; exercises the framed
	// write-coalescing wire path). LinkLatency is ignored under TCP.
	TCP bool
	// WrapBrokerTransport, when set, decorates the transport handed to
	// brokers — the fault-injection hook: inter-broker links dial through
	// the decorator (and can be severed or partitioned by it), while
	// clients keep using the undecorated Cluster.Transport. Listens pass
	// through the decorator, so clients still reach broker listeners.
	WrapBrokerTransport func(overlay.Transport) overlay.Transport
	// DialTimeout bounds broker upstream dials (initial and supervised
	// reconnects). Zero means no timeout.
	DialTimeout time.Duration
}

// Cluster is a running broker topology.
type Cluster struct {
	Transport overlay.Transport
	PHB       *broker.Broker
	Mids      []*broker.Broker
	SHBs      []*broker.Broker

	topo     Topology
	dir      string
	phbAddr  string
	shbAddrs []string
	brokerT  overlay.Transport // what brokers dial/listen on (= Transport unless wrapped)
}

// AllPubends lists the pubend IDs of the cluster.
func (c *Cluster) AllPubends() []vtime.PubendID {
	out := make([]vtime.PubendID, c.topo.Pubends)
	for i := range out {
		out[i] = vtime.PubendID(i + 1)
	}
	return out
}

// PHBAddr is the publisher connection address.
func (c *Cluster) PHBAddr() string { return c.phbAddr }

// SHBAddr is the subscriber connection address of SHB i (or the combined
// broker in the single-broker topology).
func (c *Cluster) SHBAddr(i int) string { return c.SHBAddrs()[i] }

// SHBAddrs lists every subscriber connection address.
func (c *Cluster) SHBAddrs() []string {
	if c.topo.SHBs == 0 {
		return []string{c.phbAddr}
	}
	return c.shbAddrs
}

// SHBBroker returns the broker behind SHBAddr(i).
func (c *Cluster) SHBBroker(i int) *broker.Broker {
	if c.topo.SHBs == 0 {
		return c.PHB
	}
	return c.SHBs[i]
}

// Load starts a PublisherLoad against the PHB.
func (c *Cluster) Load(o LoadOptions) (*PublisherLoad, error) {
	return StartPublisherLoad(c.Transport, c.phbAddr, o)
}

// Pool starts a SubscriberPool spread over the SHBs.
func (c *Cluster) Pool(o PoolOptions) (*SubscriberPool, error) {
	return StartSubscriberPool(c.Transport, c.SHBAddrs(), o)
}

// config is the broker configuration every member shares, for the broker
// called name under upstream ("" = the root). An SHB also gets a data
// directory and the full pubend list.
func (c *Cluster) config(name, upstream string, shb bool) broker.Config {
	cfg := broker.Config{
		Name:              name,
		Transport:         c.brokerT,
		DialTimeout:       c.topo.DialTimeout,
		ListenAddr:        name,
		UpstreamAddr:      upstream,
		TickInterval:      c.topo.TickInterval,
		EventCacheSize:    c.topo.EventCacheSize,
		RelayCacheSize:    c.topo.RelayCacheSize,
		ReadBufferQ:       c.topo.ReadBufferQ,
		MetaCommitLatency: c.topo.MetaCommitLatency,
		OnCaughtUp:        c.topo.OnCaughtUp,
	}
	if c.topo.TCP {
		// An ephemeral loopback port; the bound address is read back
		// through broker.BoundAddr.
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if shb {
		cfg.DataDir = filepath.Join(c.dir, name)
		cfg.EnableSHB = true
		cfg.AllPubends = c.AllPubends()
	}
	c.topo.Tuning.Apply(&cfg)
	return cfg
}

// BuildCluster starts the topology under dir.
func BuildCluster(dir string, topo Topology) (*Cluster, error) {
	orDefault(&topo.Pubends, 4)
	orDefault(&topo.TickInterval, 2*time.Millisecond)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: dir: %w", err)
	}
	c := &Cluster{topo: topo, dir: dir}
	if topo.TCP {
		c.Transport = overlay.TCPTransport{}
	} else {
		c.Transport = overlay.NewInprocNetwork(topo.LinkLatency)
	}
	c.brokerT = c.Transport
	if topo.WrapBrokerTransport != nil {
		c.brokerT = topo.WrapBrokerTransport(c.Transport)
	}
	phbCfg := c.config("phb", "", topo.SHBs == 0)
	phbCfg.DataDir = filepath.Join(dir, "phb")
	for i := 1; i <= topo.Pubends; i++ {
		phbCfg.HostedPubends = append(phbCfg.HostedPubends, broker.PubendConfig{
			ID:         vtime.PubendID(i),
			Policy:     topo.Policy,
			LogLatency: topo.PublishLogLatency,
		})
	}
	phb, err := broker.New(phbCfg)
	if err != nil {
		return nil, err
	}
	c.PHB = phb
	c.phbAddr = phb.BoundAddr()

	var mids []string
	for i := 0; i < topo.Chain; i++ {
		mids = append(mids, fmt.Sprintf("mid%d", i))
	}
	if topo.Intermediate {
		mids = append(mids, "mid")
	}
	for _, name := range mids {
		mid, err := broker.New(c.config(name, c.upstream(), false))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Mids = append(c.Mids, mid)
	}
	for i := 0; i < topo.SHBs; i++ {
		shb, err := broker.New(c.config(fmt.Sprintf("shb%d", i), c.upstream(), true))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.SHBs = append(c.SHBs, shb)
		c.shbAddrs = append(c.shbAddrs, shb.BoundAddr())
	}
	return c, nil
}

// upstream is the address SHBs (and the next relay) attach under: the
// last relay built so far, else the PHB.
func (c *Cluster) upstream() string {
	if len(c.Mids) > 0 {
		return c.Mids[len(c.Mids)-1].BoundAddr()
	}
	return c.phbAddr
}

// CrashSHB crashes SHB i; RestartSHB brings a successor up from the same
// data directory.
func (c *Cluster) CrashSHB(i int) {
	c.SHBBroker(i).Crash()
}

// RestartSHB restarts a crashed SHB from its persistent state.
func (c *Cluster) RestartSHB(i int) error {
	nb, err := broker.New(c.config(fmt.Sprintf("shb%d", i), c.upstream(), true))
	if err != nil {
		return err
	}
	c.SHBs[i] = nb
	c.shbAddrs[i] = nb.BoundAddr()
	return nil
}

// Close shuts every broker down.
func (c *Cluster) Close() {
	for _, shb := range c.SHBs {
		shb.Close() //nolint:errcheck,gosec // shutdown
	}
	for _, mid := range c.Mids {
		mid.Close() //nolint:errcheck,gosec // shutdown
	}
	if c.PHB != nil {
		c.PHB.Close() //nolint:errcheck,gosec // shutdown
	}
}
