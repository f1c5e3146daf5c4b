// Package wcet is the public SDK for the repository's multicore-contention
// analysis: the stable, versioned surface through which OEM and
// software-provider toolchains integrate the paper's contention models
// (DiazMKAC18) without depending on internal packages.
//
// The package inverts the dependency direction of the rest of the module:
// contention models are plugins behind one interface, and the serving,
// CLI and experiment layers are generic over a model registry. Adding a
// model or platform is a registration, not a cross-cutting edit.
//
// # Concepts
//
// A [ContentionModel] turns an [Input] — the analysed task's isolation
// debug-counter readings, its contenders' readings (or resource-usage
// templates, or exact per-target access counts), the platform latency
// characterisation and the deployment scenario — into an [Estimate]: a
// contention-aware WCET bound.
//
// A [Registry] holds named models. [DefaultRegistry] ships with the
// paper's models pre-registered under canonical names with aliases:
//
//	ftc           fully time-composable bound (Eq. 2-8)
//	ilpPtac       partially time-composable ILP bound (Eq. 9-23)
//	ftcFsb        fTC under the front-side-bus collapse (§4.3)
//	templatePtac  ILP bound against contender resource-usage templates
//	ideal         reference bound from exact PTACs (Eq. 1); a validation
//	              oracle, not obtainable from the TC27x DSU
//
// An [Analyzer] is the facade the other layers build on: functional
// options fix the platform, scenario, model set and cache once, and
// [Analyzer.Analyze] then composes validation, in-order model evaluation
// and an optional response-time-analysis verdict in one call. Analyze
// starts no goroutine: the caller's own concurrency (wcetd's and the
// experiment grids' campaign-engine slots) is the one bound on how many
// solves run at once.
//
// A [TableStore] makes the platform characterisation itself versioned:
// [WithTableStore] attaches a store of content-addressed latency tables
// (internal/tabstore is the shipped implementation), and Request.TableRef
// then selects a table per call by named ref ("tc27x/default") or
// immutable ID. Estimate-cache keys content-address the table, so
// retargeting a ref — the serving layer's hot-swap — can never surface a
// stale bound.
//
// # Quick use
//
//	an, err := wcet.NewAnalyzer(wcet.WithModels("ftc", "ilpPtac"))
//	...
//	res, err := an.Analyze(ctx, wcet.Request{
//		Analysed:   taskReadings,
//		Contenders: []wcet.Readings{contenderReadings},
//	})
//	for _, e := range res.Estimates {
//		fmt.Println(e.Name, e.WCET())
//	}
//
// # Extending
//
// Register a custom model (a new bound, a different platform's
// arbitration, a vendor-specific refinement) and every consumer of the
// registry — the wcetd /v2/analyze endpoint, the campaign engine's sweep
// grids, the CLI — can run it by name with no changes to those layers:
//
//	reg := wcet.NewDefaultRegistry()
//	err := reg.Register(myModel, "myAlias")
//	an, err := wcet.NewAnalyzer(wcet.WithRegistry(reg), wcet.WithModels("myModel"))
//
// # Table lifecycle
//
// The serving workflow for re-measured silicon is calibrate → register →
// promote → analyze: a calibration rig streams DSU counter batches into
// the estimator (internal/calib, or wcetd's POST /v2/calibrate), the
// converged candidate is registered in the table store under a ref, the
// ref is promoted to the serving default (wcetd's
// POST /v2/tables/{ref}/promote — an atomic hot-swap, no restart), and
// subsequent analyses evaluate under it. Every consumer that caches
// results keys them by the table's content address, so versions never
// bleed into each other.
//
// # Versioning
//
// This package is the compatibility boundary: the /v1 HTTP API and the
// cmd/wcet CLI's default output are frozen (golden-tested byte-identical),
// while /v2 exposes the registry's full model set. Internal packages may
// change freely underneath.
package wcet
