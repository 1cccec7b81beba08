// Package dnstime reproduces "The Impact of DNS Insecurity on Time"
// (Jeitner, Shulman, Waidner — DSN 2020): practical off-path time-shifting
// attacks against NTP and Chronos-enhanced NTP via DNS cache poisoning, and
// the paper's measurement studies of the attack surface.
//
// The package is a facade over the internal implementation:
//
//   - Lab wires a deterministic simulated internetwork (virtual clock, IPv4
//     fragmentation and defragmentation caches, UDP checksums, DNS wire
//     format, caching resolver, authoritative nameserver, NTP servers with
//     rate limiting, behavioural NTP client profiles, a Chronos client and
//     an off-path attacker).
//   - RunBootTimeAttack, RunRuntimeAttack and RunChronosAttack execute the
//     paper's three headline attacks end to end.
//   - TableIII and the measurement runners compute Table III and the
//     §VII–§VIII studies (see EXPERIMENTS.md).
//   - Every experiment is registered as a Scenario (Scenarios,
//     RunScenario); Tables I and II exist only as the table1 and table2
//     scenarios. The campaign Engine (NewEngine) fans any scenario out
//     across many seeds with streaming per-seed results, context
//     cancellation, checkpoint/resume and aggregate statistics
//     (DESIGN.md §6–§7).
//
// Quickstart:
//
//	lab := dnstime.MustNewLab(dnstime.LabConfig{Seed: 1})
//	if err := lab.PoisonResolver(86400); err != nil { ... }
//	client, _ := lab.NewClient(dnstime.ProfileNTPd, 0)
//	client.Start()
//	lab.Clock.RunFor(30 * time.Minute)
//	fmt.Println(client.ClockOffset()) // ≈ −500 s
package dnstime

import (
	"dnstime/internal/analysis"
	"dnstime/internal/campaign"
	"dnstime/internal/chronos"
	"dnstime/internal/core"
	"dnstime/internal/measure"
	"dnstime/internal/netem"
	"dnstime/internal/ntpclient"
	"dnstime/internal/population"
	"dnstime/internal/scenario"
	"dnstime/internal/search"
	"dnstime/internal/serve"
)

// Lab types: the wired attack laboratory.
type (
	// Lab is a fully wired attack laboratory (victim resolver, pool
	// nameserver, honest and attacker NTP servers, off-path attacker).
	Lab = core.Lab
	// LabConfig sizes the laboratory.
	LabConfig = core.LabConfig
	// PoisonCampaign is a running §IV-A fragment-planting campaign
	// (from Lab.StartPoisonCampaign) — unrelated to the multi-seed
	// Campaign* experiment engine below.
	PoisonCampaign = core.Campaign
)

// Lab constructors.
var (
	// NewLab builds a laboratory.
	NewLab = core.NewLab
	// MustNewLab is NewLab that panics on error (examples, benchmarks).
	MustNewLab = core.MustNewLab
)

// Network-condition emulation (DESIGN.md §8): every lab link runs over a
// composable netem path model — latency distributions, loss models
// (i.i.d. and Gilbert–Elliott bursts), reordering, asymmetric legs and
// per-pair overrides — selected per lab via LabConfig.Path or per
// campaign via the net/rtt/loss scenario params.
type (
	// PathModel decides per-packet latency and loss on lab links.
	PathModel = netem.PathModel
	// NetPath is the basic composable path model (delay + loss + reorder).
	NetPath = netem.Path
	// NetFixed is the constant latency distribution (consumes no
	// randomness — the default-lab building block).
	NetFixed = netem.Fixed
)

// Role-based lab topology (DESIGN.md §9): instead of one uniform path, a
// NetTopology assigns path models by role pair — attacker↔resolver,
// client↔resolver, resolver↔nameserver, … — so the off-path attacker can
// race the legitimate answer from a better (or worse) network position.
// Select per lab via LabConfig.Topology or per campaign via the
// topo/atk-net/cli-net scenario params.
type (
	// NetTopology assigns path models by role pair; labs compile it to
	// per-directed-link overrides as hosts join.
	NetTopology = netem.Topology
	// NetRole names a host's network position (attacker, resolver, …).
	NetRole = netem.Role
	// NetRolePair is one directed role→role link class.
	NetRolePair = netem.RolePair
)

// The lab's built-in network roles.
const (
	// NetRoleAttacker is the off-path attacker's vantage point.
	NetRoleAttacker = netem.RoleAttacker
	// NetRoleEvilServer is an attacker-operated NTP server.
	NetRoleEvilServer = netem.RoleEvilServer
	// NetRoleResolver is the victim network's recursive resolver.
	NetRoleResolver = netem.RoleResolver
	// NetRoleNameserver is the pool.ntp.org authoritative nameserver.
	NetRoleNameserver = netem.RoleNameserver
	// NetRoleNTPServer is an honest pool NTP server.
	NetRoleNTPServer = netem.RoleNTPServer
	// NetRoleClient is a victim NTP (or Chronos) client.
	NetRoleClient = netem.RoleClient
	// NetRoleAny is the role wildcard for topology links.
	NetRoleAny = netem.RoleAny
)

// Topology entry points.
var (
	// NewNetTopology returns an empty topology (every link follows its
	// Default path).
	NewNetTopology = netem.NewTopology
	// NetTopologyPreset returns a fresh named topology preset
	// (uniform, near-attacker, far-attacker, colo).
	NetTopologyPreset = netem.TopologyPreset
	// NetTopologyNames lists the built-in topology presets, sorted.
	NetTopologyNames = netem.TopologyNames
	// NetTopologyDescription returns a preset's one-line description.
	NetTopologyDescription = netem.TopologyDescription
	// NetTopologyFromSpec builds a topology from a preset name plus
	// per-side profile overrides (the topo/atk-net/cli-net code path).
	NetTopologyFromSpec = netem.TopologyFromSpec
)

// Network-condition emulation entry points.
var (
	// NetProfile returns a fresh PathModel for a named profile
	// (lab, lan, wan, transcontinental, lossy-wifi, congested).
	NetProfile = netem.Profile
	// NetProfileNames lists the built-in profile names, sorted.
	NetProfileNames = netem.ProfileNames
	// NetProfileDescription returns a profile's one-line description.
	NetProfileDescription = netem.ProfileDescription
	// NetPathFromSpec builds a PathModel from a profile name plus
	// optional rtt/loss overrides (the `-param net=...` code path).
	NetPathFromSpec = netem.FromSpec
)

// NetNoLossOverride keeps a profile's own loss model when passed as
// NetPathFromSpec's loss argument.
const NetNoLossOverride = netem.NoLossOverride

// Attack experiment runners and results.
type (
	// BootTimeResult reports a §IV-A boot-time attack.
	BootTimeResult = core.BootTimeResult
	// RuntimeResult reports a §IV-B run-time attack.
	RuntimeResult = core.RuntimeResult
	// RuntimeScenario selects P1 (upstreams known) or P2 (RefID discovery).
	RuntimeScenario = core.RuntimeScenario
	// ChronosResult reports a §VI-C Chronos attack.
	ChronosResult = core.ChronosResult
)

// Attack runners.
var (
	// RunBootTimeAttack executes the boot-time attack (Figure 2).
	RunBootTimeAttack = core.RunBootTimeAttack
	// RunRuntimeAttack executes the run-time attack (Figure 3).
	RunRuntimeAttack = core.RunRuntimeAttack
	// RunChronosAttack executes the Chronos pool-poisoning attack
	// (Figure 4).
	RunChronosAttack = core.RunChronosAttack
)

// Run-time attack scenarios.
const (
	ScenarioP1 = core.ScenarioP1
	ScenarioP2 = core.ScenarioP2
)

// Scenario registry: the uniform catalogue of every experiment (DESIGN.md
// §6). Each table, figure and scan registers a Scenario whose Run(seed,
// cfg) returns a flat, JSON-stable metric map, so generic machinery — the
// campaign engine, the CLI, the DESIGN.md §4 index generator — operates
// on all of them.
type (
	// Scenario is one registered experiment.
	Scenario = scenario.Scenario
	// ScenarioResult is one seeded scenario run outcome.
	ScenarioResult = scenario.Result
	// ScenarioConfig tunes a run (Fast shrinks the largest populations;
	// Params overrides a parameterisable scenario's defaults).
	ScenarioConfig = scenario.Config
	// ScenarioParams parameterises a scenario variant (k=v overrides,
	// validated against the scenario's ParamKeys).
	ScenarioParams = scenario.Params
)

// Scenario registry access.
var (
	// Scenarios lists every registered scenario in paper order.
	Scenarios = scenario.All
	// LookupScenario finds a scenario by its registry name.
	LookupScenario = scenario.Lookup
	// ScenarioNames lists the registered names in paper order.
	ScenarioNames = scenario.Names
	// RunScenario executes one registered scenario at one seed.
	RunScenario = scenario.Run
	// ParseScenarioParams parses "key=value" pairs (repeated CLI -param
	// flags) into ScenarioParams.
	ParseScenarioParams = scenario.ParseParams
	// ScenarioIndexMarkdown renders the DESIGN.md §4 experiment index
	// from the registry.
	ScenarioIndexMarkdown = scenario.MarkdownIndex
)

// Campaign engine: parallel multi-seed experiment fan-out (see DESIGN.md
// §7 "Engine contract"). An Engine runs any registered scenario —
// optionally parameterised — across N independent seeds on a worker pool,
// streams per-seed results in completion order, folds a deterministic
// seed-order aggregate whose bytes do not depend on the worker count,
// honours context cancellation (partial aggregate, workers drained) and
// checkpoints/resumes itself across interruptions.
type (
	// Engine is the unified campaign execution surface.
	Engine = campaign.Engine
	// EngineOption configures an Engine (see the With* options).
	EngineOption = campaign.Option
	// CampaignStream is a running campaign's per-seed result stream.
	CampaignStream = campaign.Stream
	// ScenarioAggregate is a scenario campaign's folded statistics.
	ScenarioAggregate = campaign.ScenarioAggregate
	// MetricSummary aggregates one named metric across a campaign.
	MetricSummary = campaign.MetricSummary
)

// Engine constructor and functional options.
var (
	// NewEngine builds a campaign Engine from options; Run(ctx, name)
	// blocks for the aggregate, Stream(ctx, name) yields per-seed results.
	NewEngine = campaign.NewEngine
	// WithSeeds sets the number of independent seeds (default 16).
	WithSeeds = campaign.WithSeeds
	// WithBaseSeed sets the first seed; an explicit 0 is honoured.
	WithBaseSeed = campaign.WithBaseSeed
	// WithWorkers caps concurrent runs (default GOMAXPROCS).
	WithWorkers = campaign.WithWorkers
	// WithFast shrinks the slowest scenarios' populations.
	WithFast = campaign.WithFast
	// WithParams merges scenario param overrides into every run.
	WithParams = campaign.WithParams
	// WithParam sets one scenario param override.
	WithParam = campaign.WithParam
	// WithProgress installs a completion-order progress callback.
	WithProgress = campaign.WithProgress
	// WithCheckpoint records each completed seed as a JSONL line in a
	// file and skips the seeds the file already holds, so rerunning an
	// interrupted campaign resumes it.
	WithCheckpoint = campaign.WithCheckpoint
	// WithResumeForce resumes a checkpoint written by a different VCS
	// revision (set aside as <file>.stale by default — the seeds may not
	// reproduce).
	WithResumeForce = campaign.WithResumeForce
	// WithTracerFactory installs a per-seed tracer source (see
	// internal/obs for the tracing contract).
	WithTracerFactory = campaign.WithTracerFactory
)

// Adaptive phase-boundary search (DESIGN.md §13): locate where a
// scenario's success collapses without sweeping exhaustive grids.
// SearchBisect brackets the threshold of a monotone success-vs-parameter
// axis in O(log) probe campaigns; SearchGrid sweeps a parameter matrix
// with Wilson-interval pruning and optional Latin-hypercube subsampling.
// Every probe runs through the campaign Engine, and search output is
// byte-identical at any worker count (`experiments search`).
type (
	// SearchAxis is one monotone success-vs-parameter dimension.
	SearchAxis = search.Axis
	// SearchKind selects an axis's unit system (duration or fraction).
	SearchKind = search.Kind
	// SearchOptions configures the probe campaigns of a search.
	SearchOptions = search.Options
	// SearchGridOptions configures a pruned grid sweep.
	SearchGridOptions = search.GridOptions
	// SearchDim is one dimension of a grid sweep.
	SearchDim = search.Dim
	// SearchProbe is one evaluated probe campaign.
	SearchProbe = search.Probe
	// SearchCell is one evaluated grid cell.
	SearchCell = search.Cell
	// SearchBisectResult is a completed threshold bisection.
	SearchBisectResult = search.BisectResult
	// SearchGridResult is a completed grid sweep.
	SearchGridResult = search.GridResult
)

// Search axis unit systems.
const (
	SearchKindDuration = search.KindDuration
	SearchKindFraction = search.KindFraction
)

// Search entry points.
var (
	// SearchBisect locates a monotone axis's collapse threshold.
	SearchBisect = search.Bisect
	// SearchGrid sweeps a parameter matrix with early pruning.
	SearchGrid = search.Grid
	// SearchDefaultAxis returns a scenario's built-in search axis.
	SearchDefaultAxis = search.DefaultAxis
	// SearchParseValue parses an axis value into native units.
	SearchParseValue = search.ParseValue
	// SearchParseKind parses an axis kind name.
	SearchParseKind = search.ParseKind
)

// NTP client behaviour profiles (Table I).
type Profile = ntpclient.Profile

// The seven evaluated implementations.
var (
	ProfileNTPd      = ntpclient.ProfileNTPd
	ProfileChrony    = ntpclient.ProfileChrony
	ProfileOpenNTPD  = ntpclient.ProfileOpenNTPD
	ProfileNtpdate   = ntpclient.ProfileNtpdate
	ProfileAndroid   = ntpclient.ProfileAndroid
	ProfileNtpclient = ntpclient.ProfileNtpclient
	ProfileSystemd   = ntpclient.ProfileSystemd
	// AllProfiles lists every profile with its pool.ntp.org usage share.
	AllProfiles = ntpclient.AllProfiles
	// ProfileByName resolves a client-profile name as the CLIs and
	// parameterised scenarios spell it ("ntpd", "chrony", …).
	ProfileByName = ntpclient.ProfileByName
)

// Probability analysis (§V-B, Table III).
var (
	// P1 and P2 are the run-time attack success probabilities.
	P1 = analysis.P1
	P2 = analysis.P2
	// TableIII computes all Table III rows.
	TableIII = analysis.TableIII
	// RemovalThreshold is n(m), the associations to remove.
	RemovalThreshold = analysis.RemovalThreshold
)

// DefaultPRate is the measured rate-limiting fraction (38%).
const DefaultPRate = analysis.DefaultPRate

// Chronos analysis (§VI).
var (
	// ChronosAttackBound computes the N ≤ 11 bound.
	ChronosAttackBound = chronos.AttackBound
	// ChronosControlsPool checks the 2/3 control condition.
	ChronosControlsPool = chronos.ControlsPool
)

// Measurement harness (§VII, §VIII).
var (
	// RateLimitScan reproduces the §VII-A pool scan.
	RateLimitScan = measure.RateLimitScan
	// DefaultScanConfig is the paper's 64-queries-at-1/s methodology.
	DefaultScanConfig = measure.DefaultScanConfig
	// FragScan reproduces §VII-B / Figure 5.
	FragScan = measure.FragScan
	// CacheSnoop reproduces Table IV / Figure 6 over a stored population.
	CacheSnoop = measure.CacheSnoop
	// SnoopOpenResolvers reproduces Table IV / Figure 6, snooping each
	// open resolver as it is drawn instead of storing the population.
	SnoopOpenResolvers = measure.SnoopOpenResolvers
	// AdStudy reproduces Table V.
	AdStudy = measure.AdStudy
	// SharedResolverStudy reproduces §VIII-B3.
	SharedResolverStudy = measure.SharedResolverStudy
	// TimingSideChannel reproduces Figure 7.
	TimingSideChannel = measure.TimingSideChannel
)

// Synthetic populations backing the measurements.
var (
	GeneratePool                  = population.GeneratePool
	DefaultPoolConfig             = population.DefaultPoolConfig
	GeneratePoolNameservers       = population.GeneratePoolNameservers
	DefaultPoolNameserverConfig   = population.DefaultPoolNameserverConfig
	GenerateDomainNameservers     = population.GenerateDomainNameservers
	DefaultDomainNameserverConfig = population.DefaultDomainNameserverConfig
	GenerateOpenResolvers         = population.GenerateOpenResolvers
	DefaultOpenResolverConfig     = population.DefaultOpenResolverConfig
	GenerateAdClients             = population.GenerateAdClients
	DefaultAdStudyConfig          = population.DefaultAdStudyConfig
	GenerateSharedResolvers       = population.GenerateSharedResolvers
	DefaultSharedResolverConfig   = population.DefaultSharedResolverConfig
	DefaultTimingProbeConfig      = population.DefaultTimingProbeConfig
)

// Resident experiment service (DESIGN.md §11): a long-running HTTP API
// over the campaign Engine with a bounded job queue, streamed per-seed
// results, a content-addressed aggregate cache, per-client rate limiting
// and graceful drain (`experiments serve`).
type (
	// ExperimentServer is a resident experiment service instance.
	ExperimentServer = serve.Server
	// ExperimentServerConfig sizes a resident experiment service.
	ExperimentServerConfig = serve.Config
	// ExperimentRateLimiter is the service's per-client token bucket.
	ExperimentRateLimiter = serve.Limiter
	// CampaignJobSpec is one submitted campaign: scenario, params, seed
	// range and fast flag, with a canonical content-addressed Key.
	CampaignJobSpec = campaign.JobSpec
)

// Service constructors.
var (
	// NewExperimentServer builds a resident experiment service and starts
	// its dispatcher; mount Handler on an http.Server and drain with
	// Shutdown.
	NewExperimentServer = serve.New
	// NewExperimentRateLimiter builds a per-client token-bucket limiter
	// with an injectable clock.
	NewExperimentRateLimiter = serve.NewLimiter
)
