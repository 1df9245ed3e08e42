package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"

	"repro"
	"repro/internal/logvol"
	"repro/internal/overlay"
)

// dualTransport listens on loopback TCP and, under the same bound address,
// on an in-process network. Brokers dial each other (and publishers dial
// the PHB) over TCP, so the wire codec and write coalescing stay on the
// path; the subscriber population attaches in-process, which costs no
// sockets or OS threads. A broker takes one Transport, hence the pairing.
type dualTransport struct {
	repro.TCPTransport
	inproc *repro.InprocNetwork
}

// dualListener is the TCP listener (so Broker.BoundAddr can read the bound
// port) whose Close also unbinds the in-process address.
type dualListener struct {
	net.Listener
	inproc io.Closer
}

func (l dualListener) Close() error {
	return errors.Join(l.Listener.Close(), l.inproc.Close())
}

func (t dualTransport) Listen(addr string, accept func(overlay.Conn)) (io.Closer, error) {
	c, err := t.TCPTransport.Listen(addr, accept)
	if err != nil {
		return nil, err
	}
	ln, ok := c.(net.Listener)
	if !ok {
		c.Close()
		return nil, errors.New("bench: TCP listener does not expose its address")
	}
	ic, err := t.inproc.Listen(ln.Addr().String(), accept)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("bench: in-process listen: %w", err)
	}
	return dualListener{Listener: ln, inproc: ic}, nil
}

// Pubends hosted by the PHB (paper §5.1 uses 4).
const numPubends = 4

// tree is the benchmark's broker tree: PHB (4 pubends, group commit) →
// intermediate → 2 SHBs.
type tree struct {
	inproc  *repro.InprocNetwork
	phb     *repro.Broker
	mid     *repro.Broker
	shbs    []*repro.Broker
	dataDir string
}

func pubendIDs() []repro.PubendID {
	ids := make([]repro.PubendID, numPubends)
	for i := range ids {
		ids[i] = repro.PubendID(i + 1)
	}
	return ids
}

// startTree brings the tree up under dir, each broker in its own data dir.
func startTree(ctx context.Context, dir string) (*tree, error) {
	t := &tree{inproc: repro.NewInprocNetwork(0), dataDir: dir}
	tr := dualTransport{inproc: t.inproc}
	start := func(name, up string, mod func(*repro.BrokerConfig)) (*repro.Broker, error) {
		cfg := repro.BrokerConfig{
			Name:         name,
			DataDir:      filepath.Join(dir, name),
			Transport:    tr,
			ListenAddr:   "127.0.0.1:0",
			UpstreamAddr: up,
		}
		if mod != nil {
			mod(&cfg)
		}
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("bench: data dir: %w", err)
		}
		b, err := repro.StartBroker(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: start %s: %w", name, err)
		}
		return b, nil
	}
	var err error
	t.phb, err = start("phb", "", func(c *repro.BrokerConfig) {
		for _, id := range pubendIDs() {
			c.HostedPubends = append(c.HostedPubends, repro.PubendConfig{ID: id})
		}
		// Every publish is durable before its ack (log-once at the PHB).
		c.PubendSync = logvol.SyncGroup
	})
	if err != nil {
		return nil, err
	}
	t.mid, err = start("mid", t.phb.BoundAddr(), nil)
	if err != nil {
		t.close()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		shb, err := start("shb"+strconv.Itoa(i+1), t.mid.BoundAddr(), func(c *repro.BrokerConfig) {
			c.EnableSHB = true
			c.AllPubends = pubendIDs()
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.shbs = append(t.shbs, shb)
	}
	return t, nil
}

// close stops the brokers leaf first and removes their data.
func (t *tree) close() {
	for i := len(t.shbs) - 1; i >= 0; i-- {
		t.shbs[i].Close()
	}
	if t.mid != nil {
		t.mid.Close()
	}
	if t.phb != nil {
		t.phb.Close()
	}
	os.RemoveAll(t.dataDir)
}
