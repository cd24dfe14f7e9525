package remote

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"

	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/store/wal"
)

// Site is one running component site: its server, the database it serves
// and, when it is durable, the storage engine that recovered that database.
type Site struct {
	Server *Server
	DB     *store.Database
	Engine *wal.Engine // nil unless the site is durable
}

// Close closes the server, then the engine (flushing the log's tail).
func (s *Site) Close() error {
	var err error
	if s.Server != nil {
		err = s.Server.Close()
	}
	if s.Engine != nil {
		err = errors.Join(err, s.Engine.Close())
	}
	return err
}

// StartSite boots one component site and serves it on listen
// ("127.0.0.1:0" lets the kernel pick the port). With durable set, the
// site's database and mapping replica are recovered from durable.Dir,
// seeded from cfg.DB and cfg.Tables where the recovered state lacks them
// (everything, on first boot), and served with every mutation logged
// through the engine. On an error, whatever was opened is closed again.
func StartSite(cfg ServerConfig, listen string, durable *wal.Options) (*Site, error) {
	if cfg.DB == nil {
		return nil, errors.New("remote: incomplete server config")
	}
	s := &Site{}
	if durable != nil {
		eng, db, tables, err := wal.Open(cfg.DB.Schema(), *durable)
		if err != nil {
			return nil, err
		}
		s.Engine = eng
		if err := eng.Import(cfg.DB, cfg.Tables); err != nil {
			s.Close()
			return nil, err
		}
		cfg.DB, cfg.Tables, cfg.Engine = db, tables, eng
	}
	s.DB = cfg.DB
	srv, err := NewServer(cfg)
	if err == nil {
		s.Server = srv
		err = srv.Listen(listen)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// ClusterConfig describes a federation served over loopback TCP.
type ClusterConfig struct {
	// Federation is served one site per database.
	Federation *fedfile.Federation
	// DataDir, when set, makes every site durable under DataDir/<site>.
	DataDir string
	// Configure, when non-nil, adjusts a site's config — which serves the
	// site's database, the global schema, the federation's tables and their
	// signatures — before the site starts, at StartCluster and every Restart.
	Configure func(site object.SiteID, cfg *ServerConfig)
	// Coordinator, when non-nil, is wired to the sites: the cluster sets its
	// Sites, fills a zero ID ("G"), Global or Tables from the federation,
	// and closes it at Close.
	Coordinator *Coordinator
}

// Cluster is a federation's component sites serving on loopback, each wired
// to the others as peers and all of them to the coordinator. Its methods
// are not safe for concurrent use, nor against queries in flight: a Kill or
// a Restart replaces the coordinator's address map.
type Cluster struct {
	cfg   ClusterConfig
	sigs  *signature.Index
	sites map[object.SiteID]*Site
	addr  map[object.SiteID]string // every site's last address, killed ones included
}

// StartCluster starts one site per database of the federation, then wires
// the peers and the coordinator. On an error everything started is closed.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	fed := cfg.Federation
	c := &Cluster{cfg: cfg, sigs: signature.Build(fed.Databases),
		sites: make(map[object.SiteID]*Site), addr: make(map[object.SiteID]string)}
	if co := cfg.Coordinator; co != nil {
		co.ID, co.Global, co.Tables = cmp.Or(co.ID, "G"), cmp.Or(co.Global, fed.Global), cmp.Or(co.Tables, fed.Tables)
	}
	for _, site := range sortedKeys(fed.Databases) {
		if err := c.start(site, "127.0.0.1:0"); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.rewire()
	return c, nil
}

func (c *Cluster) start(site object.SiteID, listen string) error {
	fed := c.cfg.Federation
	cfg := ServerConfig{DB: fed.Databases[site], Global: fed.Global, Tables: fed.Tables, Signatures: c.sigs}
	if c.cfg.Configure != nil {
		c.cfg.Configure(site, &cfg)
	}
	var durable *wal.Options
	if c.cfg.DataDir != "" {
		durable = &wal.Options{Dir: filepath.Join(c.cfg.DataDir, string(site)), Site: string(site)}
	}
	s, err := StartSite(cfg, listen, durable)
	if err != nil {
		return fmt.Errorf("remote: start %s: %w", site, err)
	}
	c.sites[site], c.addr[site] = s, s.Server.Addr()
	return nil
}

// rewire gives every running site and the coordinator the running sites'
// addresses.
func (c *Cluster) rewire() {
	addrs := c.Addrs() // shared: SetPeers never edits the map it is given
	for _, s := range c.sites {
		s.Server.SetPeers(addrs)
	}
	if c.cfg.Coordinator != nil {
		c.cfg.Coordinator.Sites = addrs
	}
}

// Server returns a running site's server, or nil.
func (c *Cluster) Server(site object.SiteID) *Server {
	if s := c.sites[site]; s != nil {
		return s.Server
	}
	return nil
}

// Sites lists the running sites in order.
func (c *Cluster) Sites() []object.SiteID { return sortedKeys(c.sites) }

// Addrs returns a fresh map of the running sites' addresses.
func (c *Cluster) Addrs() map[object.SiteID]string {
	addrs := make(map[object.SiteID]string, len(c.sites))
	for site := range c.sites {
		addrs[site] = c.addr[site]
	}
	return addrs
}

// Kill closes a site and removes it from every peer map and from the
// coordinator's: queries degrade without it. The coordinator marks its
// replica stale, since it misses every bind broadcast until it is back, so
// the first Ping after Restart runs its digest exchange.
func (c *Cluster) Kill(site object.SiteID) error {
	s, ok := c.sites[site]
	if !ok {
		return fmt.Errorf("remote: site %s is not running", site)
	}
	delete(c.sites, site)
	c.rewire()
	if c.cfg.Coordinator != nil {
		c.cfg.Coordinator.replica().markStale(site)
	}
	return s.Close()
}

// Restart starts a site again on its previous address — a running one is
// closed first — re-running Configure, recovering from DataDir when there
// is one, and wires it back in.
func (c *Cluster) Restart(site object.SiteID) error {
	addr, ok := c.addr[site]
	if !ok {
		return fmt.Errorf("remote: no site %s in the cluster", site)
	}
	if s, ok := c.sites[site]; ok {
		delete(c.sites, site)
		_ = s.Close() // it may have been closed behind the cluster's back
	}
	err := c.start(site, addr)
	c.rewire()
	return err
}

// Close closes the coordinator, then every site.
func (c *Cluster) Close() error {
	if c.cfg.Coordinator != nil {
		c.cfg.Coordinator.Close()
	}
	var err error
	for site, s := range c.sites {
		err = errors.Join(err, s.Close())
		delete(c.sites, site)
	}
	return err
}
