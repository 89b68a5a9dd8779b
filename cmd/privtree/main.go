// Command privtree builds a differentially private spatial decomposition
// from a CSV of points and either dumps the released tree or answers
// range-count queries; its inspect subcommand reads release provenance
// without decoding payloads.
//
// Usage:
//
//	privtree -in points.csv -eps 1.0 -out release.json
//	privtree -in points.csv -eps 1.0 -query "0.1,0.1,0.4,0.5"
//	privtree -in points.csv -eps 1.0 -queries rects.txt   # batch, one rect per line
//	cat rects.txt | privtree -demo -eps 0.5 -queries -    # batch from stdin
//	privtree inspect release.json                         # provenance, no payload decode
//	privtree inspect data/datasets/demo/store/artifacts/*.json
//	privtree verify /var/lib/privtreed                    # offline integrity scrub
//	privtree verify data/datasets/demo/store              # one store directory
//	privtree top -nodes http://a:8080,http://b:8080       # live cluster view
//	privtree top -nodes http://a:8080 -once               # one frame, scriptable
//
// inspect prints each file's kind, mechanism, ε, seed, and params
// fingerprint from the envelope metadata alone — it works on -out files
// and on privtreed store artifacts alike, and succeeds even when the
// payload would be expensive (or too damaged) to decode.
//
// verify scrubs a privtreed data directory (or a single dataset store)
// offline and read-only: WAL frame CRCs and sequence order, snapshot
// integrity, every artifact's bytes against its content-address filename,
// every committed release against an existing artifact, and (for a data
// dir) every dataset.json, parsed by the reader recovery uses. Every finding
// is printed with its severity; the exit status is non-zero when any
// error-severity finding (real corruption, not benign crash leftovers)
// is present. Run it against a copy or a stopped server — it takes the
// store's exclusive lock, so it refuses to race a live one.
//
// top polls every node's /metrics, /readyz, and /v1/traces planes and
// renders one row per node — role, readiness, request rate, in-flight
// work, ε spend, replica lag, stream freshness — plus the newest
// retained slow/error traces with their IDs, ready to paste into
// `curl <node>/v1/traces/<id>` for the span breakdown. -once renders a
// single frame (no screen clearing) for scripts and tests.
//
// The CSV has one point per line, d comma-separated coordinates, all in
// [0,1) (use -domain to override). A -queries file has one query rectangle
// per line as comma-separated lo...hi coordinates (blank lines and
// #-comments skipped); the whole batch is answered against ONE released
// tree — the privacy cost is the single build's ε no matter how many
// queries follow, since queries are post-processing of the release.
//
// -out writes the release in the library's versioned wire envelope
// ({"privtree_release":1,...}), loadable with privtree.Decode; the default
// stdout dump is a human-readable summary of the released leaves. Both
// contain leaf regions and noisy counts only — safe to publish under the
// chosen ε.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"privtree"
	"privtree/internal/dp"
	"privtree/internal/server"
	"privtree/internal/store"
	"privtree/internal/synth"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "inspect" {
		if err := runInspect(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		if err := runVerify(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		if err := runTop(os.Args[2:], os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var (
		in      = flag.String("in", "", "input CSV of points (one point per line)")
		demo    = flag.Bool("demo", false, "use built-in synthetic road-like data instead of -in")
		eps     = flag.Float64("eps", 1.0, "total privacy budget ε")
		out     = flag.String("out", "", "write the released tree as JSON to this file (default stdout)")
		query   = flag.String("query", "", "answer one range query: comma-separated lo...hi coordinates")
		queries = flag.String("queries", "", "answer a batch of range queries from this file, one rect per line ('-' for stdin)")
		domain  = flag.String("domain", "", "domain as lo...hi coordinates (default unit cube)")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	var points []privtree.Point
	var err error
	switch {
	case *demo:
		data := synth.RoadLike(200000, dp.NewRand(*seed))
		points = data.Points
	case *in != "":
		points, err = readCSV(*in)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("either -in or -demo is required"))
	}
	if len(points) == 0 {
		fatal(fmt.Errorf("no points"))
	}
	if *query != "" && *queries != "" {
		fatal(fmt.Errorf("-query and -queries are mutually exclusive"))
	}
	d := len(points[0])

	dom := privtree.UnitCube(d)
	if *domain != "" {
		r, err := parseRect(*domain, d)
		if err != nil {
			fatal(fmt.Errorf("-domain: %v", err))
		}
		dom = r
	}
	// Parse the single query up front so a bad one fails before the build.
	var singleQ privtree.Rect
	if *query != "" {
		q, err := parseRect(*query, d)
		if err != nil {
			fatal(fmt.Errorf("-query: %v", err))
		}
		singleQ = q
	}

	// The build goes through the registry mechanism so the CLI exercises
	// the same Mechanism → Release path as the server and library callers.
	data, err := privtree.NewSpatialData(dom, points)
	if err != nil {
		fatal(err)
	}
	mech, err := privtree.NewSpatialMechanism(privtree.SpatialOptions{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	rel, err := mech.Run(data, *eps)
	if err != nil {
		fatal(err)
	}
	tree, _ := rel.Spatial()
	fmt.Fprintf(os.Stderr, "built ε=%g private tree: %d nodes, height %d, n≈%.0f\n",
		*eps, tree.Nodes(), tree.Height(), tree.Total())

	if *query != "" {
		fmt.Printf("%.2f\n", tree.RangeCount(singleQ))
		return
	}
	if *queries != "" {
		if err := answerBatch(tree, *queries, d); err != nil {
			fatal(err)
		}
		return
	}

	if *out != "" {
		// The archival format is the versioned envelope: self-describing,
		// records mechanism/ε/params, and loads through privtree.Decode.
		enc, err := json.Marshal(rel)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(err)
		}
		return
	}
	summary := struct {
		Epsilon float64               `json:"epsilon"`
		Total   float64               `json:"total"`
		Leaves  []privtree.LeafRegion `json:"leaves"`
	}{Epsilon: *eps, Total: tree.Total(), Leaves: tree.Leaves()}
	enc, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
}

// runInspect implements the inspect subcommand: print each file's
// envelope provenance without decoding (or validating) the payload.
func runInspect(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("usage: privtree inspect <release.json> [more files...]")
	}
	failed := 0
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "privtree: %v\n", err)
			failed++
			continue
		}
		info, err := privtree.InspectEnvelope(blob)
		if err != nil {
			fmt.Fprintf(os.Stderr, "privtree: %s: %v\n", path, err)
			failed++
			continue
		}
		if len(paths) > 1 {
			fmt.Printf("%s:\n", path)
		}
		fmt.Printf("  version:       %d\n", info.Version)
		fmt.Printf("  kind:          %s\n", info.Kind)
		if info.Mechanism != "" {
			fmt.Printf("  mechanism:     %s\n", info.Mechanism)
		} else {
			fmt.Printf("  mechanism:     (not recorded)\n")
		}
		if info.Epsilon > 0 {
			fmt.Printf("  epsilon:       %g\n", info.Epsilon)
		} else {
			fmt.Printf("  epsilon:       (not recorded)\n")
		}
		fmt.Printf("  seed:          %d\n", info.Seed)
		fmt.Printf("  fingerprint:   %s\n", info.Fingerprint)
		fmt.Printf("  payload_bytes: %d\n", info.PayloadBytes)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d file(s) failed to inspect", failed, len(paths))
	}
	return nil
}

// runVerify implements the verify subcommand: an offline, read-only
// integrity scrub of either one dataset store directory or a whole
// privtreed data dir (every datasets/*/store under it, and every
// datasets/*/dataset.json, read as recovery reads it).
func runVerify(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: privtree verify <data-dir | store-dir>")
	}
	dirs, datasets, err := storeDirsUnder(args[0])
	if err != nil {
		return err
	}
	scrubErrors := 0
	for _, ds := range datasets {
		if err := server.CheckDatasetFile(ds); err != nil {
			path := filepath.Join(ds, "dataset.json")
			fmt.Printf("%s: CORRUPT\n  [error] %s: %v\n", path, path, err)
			scrubErrors++
		}
	}
	for _, dir := range dirs {
		report, err := store.Scrub(dir)
		if err != nil {
			// The scrub could not even run (dir vanished, lock held by a
			// live server): report and keep sweeping the rest.
			fmt.Fprintf(os.Stderr, "privtree: %s: %v\n", dir, err)
			scrubErrors++
			continue
		}
		printReport(report)
		if !report.OK() {
			scrubErrors++
		}
	}
	if scrubErrors > 0 {
		return fmt.Errorf("%d of %d store(s) and registration(s) failed verification", scrubErrors, len(dirs)+len(datasets))
	}
	fmt.Printf("OK: %d store(s) and %d registration(s) verified\n", len(dirs), len(datasets))
	return nil
}

// storeDirsUnder resolves the verify target: a directory holding a
// ledger.wal is itself a store; otherwise it must be a privtreed data dir,
// whose datasets/<name> children each hold a dataset.json and usually a
// store/.
func storeDirsUnder(root string) (stores, datasets []string, err error) {
	if _, err := os.Stat(filepath.Join(root, "ledger.wal")); err == nil {
		return []string{root}, nil, nil
	}
	entries, err := os.ReadDir(filepath.Join(root, "datasets"))
	if err != nil {
		return nil, nil, fmt.Errorf("%s is neither a store directory (no ledger.wal) nor a privtreed data dir (no datasets/): %v", root, err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		ds := filepath.Join(root, "datasets", ent.Name())
		datasets = append(datasets, ds)
		if _, err := os.Stat(filepath.Join(ds, "store")); err == nil {
			stores = append(stores, filepath.Join(ds, "store"))
		}
	}
	if len(stores) == 0 {
		return nil, nil, fmt.Errorf("%s: no dataset stores found under datasets/", root)
	}
	return stores, datasets, nil
}

func printReport(r *store.ScrubReport) {
	status := "ok"
	if !r.OK() {
		status = "CORRUPT"
	}
	fmt.Printf("%s: %s (%d WAL records, %d commits, %d artifacts verified)\n",
		r.Dir, status, r.WALRecords, r.Commits, r.Artifacts)
	for _, f := range r.Findings {
		fmt.Printf("  [%s] %s: %s\n", f.Severity, f.Path, f.Detail)
	}
}

// answerBatch streams query rectangles from path ('-' = stdin) and prints
// one answer per line, all against the single already-released tree.
func answerBatch(tree *privtree.SpatialTree, path string, d int) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line, answered := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		q, err := parseRect(text, d)
		if err != nil {
			return fmt.Errorf("queries line %d: %v", line, err)
		}
		fmt.Fprintf(w, "%.2f\n", tree.RangeCount(q))
		answered++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "answered %d queries against one ε-release\n", answered)
	return nil
}

func readCSV(path string) ([]privtree.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []privtree.Point
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		coords, err := parseFloats(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		out = append(out, coords)
	}
	return out, sc.Err()
}

// parseRect parses comma-separated lo...hi coordinates into a validated
// d-dimensional rectangle: it returns errors — never panics — on wrong
// arity, non-finite coordinates, or inverted intervals.
func parseRect(s string, d int) (privtree.Rect, error) {
	coords, err := parseFloats(s)
	if err != nil {
		return privtree.Rect{}, err
	}
	if len(coords) != 2*d {
		return privtree.Rect{}, fmt.Errorf("got %d comma-separated values, want %d (lo..., hi...)", len(coords), 2*d)
	}
	return privtree.MakeRect(coords[:d], coords[d:])
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "privtree:", err)
	os.Exit(1)
}
