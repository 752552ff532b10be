package dfs

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/mr"
	"repro/internal/relation"
)

// LoadMethod identifies one of the Fig. 11 loading paths.
type LoadMethod uint8

// The three loading paths of Fig. 11.
const (
	LoadPlain LoadMethod = iota // plain Hadoop upload
	LoadHive                    // Hive warehouse load
	LoadOurs                    // upload + sampling pass + statistics build
)

// String names the method as plotted in Fig. 11.
func (m LoadMethod) String() string {
	switch m {
	case LoadPlain:
		return "Plain Hadoop Uploading"
	case LoadHive:
		return "Hive"
	case LoadOurs:
		return "Our Method"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// File is a stored relation with its block layout and (for LoadOurs)
// the statistics and index gathered at load time.
type File struct {
	Name     string
	Rel      *relation.Relation
	Blocks   int
	Replicas int
	Bytes    int64 // modeled bytes, pre-replication
	Method   LoadMethod
	Stats    *relation.TableStats // LoadOurs only

	// Placement maps each block ordinal to the DataNode ordinals
	// holding its replicas (Placement[b][0] is the primary). It is a
	// pure function of the store's configuration and the upload
	// sequence — see the determinism contract in the package doc.
	Placement [][]int
}

// Store is the simulated HDFS namespace.
type Store struct {
	cfg   mr.Config
	nodes int
	files map[string]*File
	place *rand.Rand // block-placement RNG; seeded from cfg + nodes
}

// placementSeed derives the block-placement RNG seed from the store's
// configuration: the fields that shape the block layout (block size,
// replication factor) plus the cluster geometry. Two stores built from
// equal configurations place blocks identically; the seed never comes
// from wall clock or a global RNG.
func placementSeed(cfg mr.Config, nodes int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "dfs-placement|%d|%d|%d", cfg.BlockSizeMB, cfg.DFSReplication, nodes)
	return int64(h.Sum64())
}

// NewStore creates a store over the cluster described by cfg; nodes is
// the DataNode count (the paper's testbed has 12 workers + 1 master).
func NewStore(cfg mr.Config, nodes int) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("dfs: need >= 1 node")
	}
	return &Store{
		cfg:   cfg,
		nodes: nodes,
		files: make(map[string]*File),
		place: rand.New(rand.NewSource(placementSeed(cfg, nodes))),
	}, nil
}

// placeBlocks assigns replica nodes to each of n blocks, HDFS-style:
// the primary lands on a pseudo-random node drawn from the store's
// seeded placement RNG, and further replicas on the following distinct
// nodes. Replication is clamped to the node count — more copies than
// nodes adds nothing.
func (s *Store) placeBlocks(n, repl int) [][]int {
	if repl > s.nodes {
		repl = s.nodes
	}
	placement := make([][]int, n)
	for b := range placement {
		primary := s.place.Intn(s.nodes)
		nodes := make([]int, repl)
		for j := range nodes {
			nodes[j] = (primary + j) % s.nodes
		}
		placement[b] = nodes
	}
	return placement
}

// LoadReport describes one completed load.
type LoadReport struct {
	Method  LoadMethod
	Bytes   int64
	Blocks  int
	Seconds float64
}

// Upload stores the relation using the given method and returns the
// load-time report. Uploads run in parallel across DataNodes ("the
// uploading is performed by each DataNode from their local disk"),
// writing Replicas copies; the pipeline is write-rate bound.
func (s *Store) Upload(r *relation.Relation, method LoadMethod, sampleSize int, seed int64) (*LoadReport, error) {
	if r == nil {
		return nil, fmt.Errorf("dfs: nil relation")
	}
	if _, dup := s.files[r.Name]; dup {
		return nil, fmt.Errorf("dfs: file %q exists", r.Name)
	}
	bytes := r.ModeledSize()
	blockBytes := int64(s.cfg.BlockSizeMB) * 1e6
	blocks := int((bytes + blockBytes - 1) / blockBytes)
	if blocks < 1 {
		blocks = 1
	}
	repl := s.cfg.DFSReplication
	if repl < 1 {
		repl = 1
	}

	writeBps := s.cfg.DiskWriteMBps * 1e6
	readBps := s.cfg.DiskReadMBps * 1e6
	// Base upload: each node reads its local shard and writes repl
	// copies through the replication pipeline (replica 2 and 3 are
	// written concurrently with the first on other nodes; charge the
	// pipeline's bottleneck: one read + one write per node, plus a
	// replication overhead of (repl-1) network-priced writes spread
	// over the cluster).
	perNode := float64(bytes) / float64(s.nodes)
	base := perNode/readBps + perNode/writeBps
	replOverhead := perNode * float64(repl-1) / (s.cfg.NetworkMBps * 1e6)
	seconds := base + replOverhead

	file := &File{
		Name: r.Name, Rel: r, Blocks: blocks, Replicas: repl,
		Bytes: bytes, Method: method,
		Placement: s.placeBlocks(blocks, repl),
	}
	switch method {
	case LoadPlain:
		// Nothing extra.
	case LoadHive:
		// Hive parses and validates every record into its warehouse
		// format: a CPU-bound extra 0.6 read-pass across the nodes.
		seconds += 0.6 * float64(bytes) / readBps / float64(s.nodes)
	case LoadOurs:
		// Sampling pass: read a bounded sample (cheap), build the
		// statistics the planner reads — the retained sample and its
		// heavy-hitter report — then write the (small) index back.
		stats := relation.Analyze(r, sampleSize, rand.New(rand.NewSource(seed)))
		file.Stats = stats
		sampleBytes := float64(sampleSize) * stats.AvgTuple
		if sampleBytes > float64(bytes) {
			sampleBytes = float64(bytes)
		}
		// Sampling reads a bounded subset of blocks, and the statistics
		// build adds a 0.45 read-pass across the nodes — a little more
		// than plain uploading, converging towards Hive's cost at
		// large volumes (§6.3, Fig. 11).
		seconds += sampleBytes/readBps + 0.45*float64(bytes)/readBps/float64(s.nodes)
		indexBytes := float64(r.Schema.Len()) * 1024
		seconds += indexBytes / writeBps
	default:
		return nil, fmt.Errorf("dfs: unknown load method %v", method)
	}
	s.files[r.Name] = file
	return &LoadReport{Method: method, Bytes: bytes, Blocks: blocks, Seconds: seconds}, nil
}

// File returns a stored file.
func (s *Store) File(name string) (*File, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: no file %q", name)
	}
	return f, nil
}

// Len returns the number of stored files.
func (s *Store) Len() int { return len(s.files) }

// TotalStoredBytes returns modeled bytes including replication.
func (s *Store) TotalStoredBytes() int64 {
	var n int64
	for _, f := range s.files {
		n += f.Bytes * int64(f.Replicas)
	}
	return n
}
