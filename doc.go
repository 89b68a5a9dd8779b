// Package privtree implements PrivTree, the differentially private
// hierarchical-decomposition algorithm of Zhang, Xiao & Xie (SIGMOD 2016),
// together with its two flagship applications and the baselines the paper
// evaluates against.
//
// # What PrivTree is
//
// Given a dataset D over a domain Ω, PrivTree recursively splits Ω into a
// decomposition tree (a quadtree for 2-D points) and releases the tree —
// optionally with noisy counts — under ε-differential privacy. Unlike the
// classical private-quadtree recipe, it needs NO pre-set limit on the
// recursion depth: each node's count is biased downward by depth·δ and
// clamped at θ−δ before the Laplace noise is added, which telescopes the
// privacy cost of the whole root-to-leaf decision chain into a constant.
// The noise scale is λ = (2β−1)/(β−1)·1/ε for fanout β, independent of how
// deep the tree grows.
//
// # Entry points: Mechanism, Release, Session
//
// The paper frames every output — the spatial decomposition (Section 3),
// the prediction suffix tree (Section 4), the hybrid-domain tree (Section
// 3.5), and each Figure-5 baseline — as the same object: an ε-DP release
// produced by a mechanism, composed sequentially and post-processed
// freely. The API says exactly that, with three types:
//
//   - Mechanism: a named, parameter-validated DP build. Every mechanism
//     registers into the Mechanisms() registry — "spatial", "sequence",
//     "hybrid", and "baseline/ug" … "baseline/simpletree" — and is
//     instantiated either by name from a wire-stable Params union
//     (NewMechanism) or from typed options (NewSpatialMechanism,
//     NewSequenceMechanism, NewHybridMechanism, NewBaselineMechanism).
//   - Release: the uniform artifact a mechanism produces — kind, the ε it
//     consumed, seed, a params fingerprint, and the payload. Spatial and
//     baseline releases satisfy RangeCounter, sequence releases satisfy
//     FrequencyEstimator; typed accessors (Spatial, Sequence, Hybrid)
//     recover the concrete payloads.
//   - Session: a ledger-backed release workflow. NewSession(budget) holds
//     a dataset's total privacy budget; Session.Release(mech, data, eps)
//     debits the ledger before the mechanism runs (sequential
//     composition, Lemma 2.1), serves repeated identical requests from
//     cache without a new debit (post-processing), refunds the debit when
//     a build fails, and exposes the full audit trail via History.
//
// Private data enters through NewSpatialData, NewSequenceData, and
// NewHybridData, which validate eagerly and never expose the raw
// contents.
//
// The legacy one-call builders — BuildSpatial, BuildSequenceModel,
// BuildHybrid, BuildBaseline — remain as thin wrappers over the registry
// mechanisms for callers that do not need budget accounting.
//
// On the wire, every serializable release travels in one versioned,
// self-describing envelope ({"privtree_release": 1, "kind": ..., ...});
// Decode is the single entry point, and it still loads the legacy
// per-type v0 documents through compat shims. Spatial and sequence
// envelopes go through a hand-written codec that works on the flat
// arenas directly, on top of internal/wire, the JSON scanner and float
// writer privtreed's request bodies share: the writer emits exactly the
// bytes encoding/json did (same key order, same float formatting), and
// the reader accepts what encoding/json accepts — any whitespace and key
// order, unknown and repeated keys, null, nesting up to 10,000 levels —
// except that keys match in their exact case only. Hybrid payloads still
// use encoding/json.
//
// The SVT analysis of Section 5 lives in the same module for side-by-side
// comparison; the experiment runners that regenerate every figure and
// table of the paper are exposed through cmd/privtree-bench.
//
// # Performance
//
// The hot paths are engineered to be allocation-free in steady state:
// decomposition trees are stored as flat node arenas (children as
// contiguous index blocks) with every region's coordinates in one flat
// slab in arena order, the per-node and per-query geometry writes into
// caller-provided buffers, and RangeCount performs zero heap allocations
// per query: it walks the slab directly, with the float operations of the
// geom.Rect methods in their order, so its answers are bit-identical to a
// Rect-based traversal. Tree construction draws every
// node's noise from a splittable stream keyed by the node's path from the
// root, so subtrees can be built on a worker pool
// (SpatialOptions.Workers) while remaining a pure function of the seed:
// serial and parallel builds release identical trees.
//
// The sequence pipeline follows the same architecture: sequences are
// ingested into one columnar symbol slab with (offset, length) headers,
// truncation at l⊤ is an in-place header update, and the prediction
// suffix tree is a flat arena whose histograms live in one shared float
// slab. Split and histogram noise is keyed by the context path, so
// SequenceOptions.Workers parallelizes the build with byte-identical
// serialized output, and EstimateFrequency answers queries with zero heap
// allocations. See README.md ("Performance architecture") for the
// measured numbers.
//
// All randomness is seeded: the same seed reproduces the same tree or
// sequence model, at every Workers setting.
//
// # Serving releases
//
// cmd/privtreed (package internal/server) runs the library as a
// multi-tenant release server: a thin tenancy layer over the public API,
// with one Session per registered dataset. Datasets are registered with a
// total privacy budget ε; every release runs a registry mechanism through
// the session, which debits the ledger before the mechanism runs, serves
// already-purchased parameters from cache without a new debit (publishing
// the same released bytes twice is post-processing), and rejects
// over-budget requests with a structured budget_exhausted error carrying
// the remaining ε. Batched range-count queries are answered from immutable
// released trees on a goroutine pool via the allocation-free RangeCount
// path; queries read only released artifacts and therefore consume no
// budget. See README.md ("Serving releases") for the HTTP API.
//
// # Durability and crash safety
//
// Sequential composition bounds the privacy loss of everything ever
// released about a dataset by the SUM of the ledger's debits — so a
// ledger that forgets a debit (a restart of an in-memory accountant) is
// not a bookkeeping bug, it is an ε violation: whoever can bounce the
// process gets the budget again, without limit. OpenSession(dir, budget)
// — or Session.WithStore — attaches a crash-safe store (internal/store)
// that makes the ledger's guarantee survive the process:
//
//   - a debit is appended to a CRC-framed write-ahead log and fsynced
//     BEFORE the mechanism runs, so no released noise can out-live its
//     debit;
//   - a refund for a failed build is durable BEFORE the error returns
//     (and if it cannot be made durable, the budget stays spent — the
//     failure direction is over-counting, never under-counting);
//   - a successful release's envelope is persisted content-addressed and
//     committed, so after a restart the same request is served from the
//     exact stored bytes with no new debit.
//
// Recovery replays the log sequentially (torn tails truncated, duplicate
// frames skipped, hostile bytes rejected without panics) and rebuilds
// spent ε, the audit trail — refunds appear as explicit entries — and
// the release cache. cmd/privtreed exposes all of this as -data-dir;
// InspectEnvelope (and the privtree inspect subcommand) reads any
// artifact's provenance without decoding its payload. See README.md
// ("Durability & crash safety") for the full argument.
//
// # Operating under load and failure
//
// Session.ReleaseContext extends the same invariants to cancellation: a
// build abandoned because its context was cancelled (a client timeout, a
// server-side deadline) has its debit refunded — durably, before the
// error returns — so a retry of the identical request pays at most one
// debit, either as a fresh build or as a cache hit against a release
// whose acknowledgment was lost. The serving layer builds on this with
// per-route deadlines and bounded admission gates that shed saturating
// load as typed 429/503 errors instead of queueing unboundedly, and the
// client package implements the matching retry discipline (capped
// jittered backoff, a retry budget, idempotency-aware classification).
// A seeded fault-injection harness (internal/faultnet plus the chaos
// test) drives the full loop through latency, resets, truncation, and
// blackholes and asserts the ledger balances exactly. See README.md
// ("Operating under load & failure").
//
// # Replication and failover
//
// The store's WAL doubles as a replication log. A replica process
// (privtreed -replica-of URL) pulls every dataset's WAL from its own
// cursor and every release artifact by content address — frames
// re-verified by CRC, artifacts by SHA-256 — and applies them through
// the same replay path as crash recovery, so a replica is a
// continuously refreshed restart-recovered copy of the primary. It
// serves the full read plane (queries, artifacts, audit) from that
// state with bit-identical envelopes and rejects writes with a
// structured read_only error; when the primary dies it keeps serving
// reads (stale-but-exact post-processing is always privacy-safe) until
// an operator promotes it. Promotion bumps a durable writer epoch —
// fsynced before the first write is accepted — and the epoch fences the
// old primary if it comes back: its stores durably refuse further
// appends rather than ever letting two live nodes debit the same
// budget. Session.ApplyReplicated and the Store replication surface
// (WALFrames, PutArtifact, Promote, Fence) expose the same machinery to
// library users; client.NewCluster gives clients endpoint-list routing
// with read round-robin and write failover. A replication chaos sweep
// (fault-injected link, primary SIGKILLed mid-debit, replica promoted)
// asserts the invariant end to end: spent ε on the promoted node equals
// the acknowledged debits exactly. See README.md ("Replication &
// failover").
//
// # Observability
//
// Instrumentation lives in internal/obs — atomic counters, gauges, and
// fixed-bucket histograms that cost zero heap allocations per
// observation, collected in a named registry the server exposes as
// Prometheus text on GET /metrics (the JSON snapshot remains at
// /metricsz). Every request carries a trace: Session.ReleaseContext
// reads it from the context and records spans for the debit, the WAL
// append, the mechanism build, the envelope encoding, and the commit,
// so one trace ID — echoed to the client as X-Trace-Id, written into
// the slow-request log, and persisted into the WAL — explains where a
// release's wall-clock and its ε went. Session.Audit (served as GET
// /v1/datasets/{name}/audit) returns that history: WAL-sequenced
// debit/refund/commit entries whose net ε equals the ledger's spent
// balance exactly, each tagged with the trace ID of the request that
// caused it.
//
// Traces outlive their responses: an in-process flight recorder
// (obs.FlightRecorder) retains completed traces in a fixed ring under
// tail-based sampling — every error, everything slower than a
// threshold, and a deterministic 1-in-N of normal traffic — and serves
// them at GET /v1/traces (filterable) and GET /v1/traces/{id}. A
// well-formed inbound X-Trace-Id is adopted, the client reuses one ID
// across a logical call's retries, and a replica records the shipped
// artifact fetch under the originating release's ID, so a single ID a
// caller stamped resolves on every node that touched the release —
// including post-hoc, from the WAL's audit trail. Latency-histogram
// buckets on /metrics carry OpenMetrics exemplars naming the last
// trace that landed in them, and the privtree CLI's top subcommand
// polls /metrics, /readyz, and /v1/traces across a node list into a
// live cluster view. See README.md ("Observability" and "Debugging
// with traces").
//
// # Streaming ingestion and continual release
//
// Data is frozen at construction; Stream (NewSpatialStream,
// NewSequenceStream) is its appendable counterpart for datasets that
// keep arriving. AppendPoints/AppendSequences validate each batch
// atomically before buffering any of it, and Seal freezes everything
// since the previous seal into an immutable *Data for exactly one epoch
// (ErrEmptyEpoch, not a charge, when nothing is pending). The privacy
// argument is epoch disjointness plus sliding-window composition
// (internal/stream): each epoch's records are released exactly once,
// debiting ε_epoch through the Session like any other release, and the
// served window — the latest alias, a sum over the last W epoch
// releases — is post-processing, so the window is (W·ε_epoch)-DP while
// any single record is touched by only ε_epoch. Sliding the window
// never refunds ε: aged-out epochs stay spent on the ledger.
// Session.AppendSeal/Seals persist the epoch boundaries (WAL-backed
// when a store is attached), and Store.LastSealedEpoch lets recovery
// and replicas agree on the seal position. cmd/privtreed exposes the
// plane as a stream spec at registration plus POST
// /v1/datasets/{name}/ingest — batches fsynced into an ingest journal
// before acknowledgment, batch_seq idempotency for exactly-once
// writers, auto-seal by count or wall clock — with crash, chaos, and
// fuzz harnesses holding the accounting exact at every boundary. See
// README.md ("Streaming & continual release").
//
// Build entry points validate their parameters and return errors — never
// panics — on non-positive ε, unusable fanouts, or degenerate domains, so
// they can sit directly behind untrusted inputs, and the
// SpatialTree/SequenceModel UnmarshalJSON implementations reject
// malformed, non-finite, or truncated documents rather than constructing
// a corrupt artifact.
package privtree
