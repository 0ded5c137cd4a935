package chaos

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"limitsim/internal/telemetry"
	"limitsim/internal/workloads"
)

// Job spaces: the campaign and soak matrices as shardable job spaces,
// and the only way either runs. A job is one seeded run — a pure
// function of (defaulted config, key) — whose outcome struct is folded
// directly by Run/RunSoak, or JSON-encoded as a payload so the run can
// execute on any fleet worker process, be retried or speculatively
// duplicated, and still assemble through the same fold into a result
// byte-identical to the in-process one. Each run's telemetry rides
// along as a JSONL block and merges into the campaign registry in key
// order.

// workerPool lazily builds one pooled artifact set per worker index.
// The fleet contract says a given worker index never runs two jobs
// concurrently, but different indices do, so the map itself is locked.
type workerPool[W any] struct {
	mu      sync.Mutex
	build   func() W
	workers map[int]W
}

func (p *workerPool[W]) get(wi int) W {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.workers == nil {
		p.workers = map[int]W{}
	}
	ws, ok := p.workers[wi]
	if !ok {
		ws = p.build()
		p.workers[wi] = ws
	}
	return ws
}

// CampaignSpace is the read-path campaign as a shardable job space:
// one job per (mix, seed) cell, keyed mix-major.
type CampaignSpace struct {
	cfg  Config
	pool workerPool[*campaignWorker]
}

// NewCampaignSpace builds the space over the defaulted config.
func NewCampaignSpace(cfg Config) *CampaignSpace {
	cfg = cfg.withDefaults()
	s := &CampaignSpace{cfg: cfg}
	s.pool.build = func() *campaignWorker { return newCampaignWorker(cfg) }
	return s
}

// Config returns the defaulted campaign config the space runs.
func (s *CampaignSpace) Config() Config { return s.cfg }

// NumJobs is mixes × seeds.
func (s *CampaignSpace) NumJobs() int { return len(s.cfg.Mixes) * s.cfg.Seeds }

// run executes the (mix, seed) cell job names on worker's pooled
// artifacts.
func (s *CampaignSpace) run(job, worker int) (runOutcome, error) {
	if job < 0 || job >= s.NumJobs() {
		return runOutcome{}, fmt.Errorf("chaos: campaign job %d outside space [0,%d)", job, s.NumJobs())
	}
	mi, sd := job/s.cfg.Seeds, job%s.cfg.Seeds
	return s.pool.get(worker).run(s.cfg, s.cfg.Mixes[mi], RunSeed(mi, sd)), nil
}

// Run executes the (mix, seed) cell job names and returns its outcome
// payload. Deterministic: two executions of the same key produce the
// same bytes regardless of worker or attempt.
func (s *CampaignSpace) Run(job, worker int) ([]byte, error) {
	out, err := s.run(job, worker)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&out)
}

// AssembleCampaign rebuilds a campaign Result from the space's keyed
// payloads with the fold Run uses, so the rendered report is
// byte-identical to a single-process campaign's.
func AssembleCampaign(cfg Config, payloads [][]byte) (*Result, error) {
	cfg = cfg.withDefaults()
	outs, err := decodePayloads[runOutcome](payloads, len(cfg.Mixes)*cfg.Seeds, "campaign")
	if err != nil {
		return nil, err
	}
	return assembleCampaign(cfg, outs)
}

// assembleCampaign folds keyed run outcomes into mix results and merges
// each run's telemetry, both in (mix, seed) key order.
func assembleCampaign(cfg Config, outs []runOutcome) (*Result, error) {
	res := &Result{Cfg: cfg, Want: buildWorkload(cfg).want, Mixes: make([]MixResult, len(cfg.Mixes))}
	if cfg.Metrics {
		res.Telemetry, _, _ = newRegistry(cfg.Tenants)
	}
	for mi := range res.Mixes {
		res.Mixes[mi].Name = cfg.Mixes[mi].Name
	}
	for j := range outs {
		res.Mixes[j/cfg.Seeds].add(&outs[j])
		if err := mergeRunTelemetry(res.Telemetry, outs[j].Telemetry, j); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// SoakSpace is the lifecycle soak campaign as a shardable job space:
// one job per (mix, seed) cell, keyed mix-major.
type SoakSpace struct {
	cfg  SoakConfig
	pool workerPool[*soakWorker]
}

// NewSoakSpace builds the space over the defaulted config.
func NewSoakSpace(cfg SoakConfig) *SoakSpace {
	cfg = cfg.withDefaults()
	s := &SoakSpace{cfg: cfg}
	s.pool.build = func() *soakWorker { return newSoakWorker(cfg) }
	return s
}

// Config returns the defaulted soak config the space runs.
func (s *SoakSpace) Config() SoakConfig { return s.cfg }

// NumJobs is mixes × seeds.
func (s *SoakSpace) NumJobs() int { return len(s.cfg.Mixes) * s.cfg.Seeds }

// run executes the (mix, seed) soak cell job names on worker's pooled
// artifacts.
func (s *SoakSpace) run(job, worker int) (soakOutcome, error) {
	if job < 0 || job >= s.NumJobs() {
		return soakOutcome{}, fmt.Errorf("chaos: soak job %d outside space [0,%d)", job, s.NumJobs())
	}
	mi, sd := job/s.cfg.Seeds, job%s.cfg.Seeds
	return s.pool.get(worker).run(s.cfg, s.cfg.Mixes[mi], RunSeed(mi, sd)), nil
}

// Run executes the (mix, seed) soak cell and returns its outcome
// payload.
func (s *SoakSpace) Run(job, worker int) ([]byte, error) {
	out, err := s.run(job, worker)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&out)
}

// AssembleSoak rebuilds a SoakResult from the space's keyed payloads,
// byte-identical to RunSoak's for the same config. A payload whose wave
// accounting does not match cfg.Waves is an error naming its job.
func AssembleSoak(cfg SoakConfig, payloads [][]byte) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	outs, err := decodePayloads[soakOutcome](payloads, len(cfg.Mixes)*cfg.Seeds, "soak")
	if err != nil {
		return nil, err
	}
	return assembleSoak(cfg, outs)
}

// assembleSoak is assembleCampaign for the soak.
func assembleSoak(cfg SoakConfig, outs []soakOutcome) (*SoakResult, error) {
	res := &SoakResult{Cfg: cfg, Want: workloads.BuildChurn(cfg.churn()).Want, Mixes: make([]SoakMixResult, len(cfg.Mixes))}
	if cfg.Metrics {
		res.Telemetry, _, _ = newRegistry(cfg.Tenants)
	}
	for mi := range res.Mixes {
		res.Mixes[mi].Name = cfg.Mixes[mi].Name
		res.Mixes[mi].Waves = make([]WaveAcct, cfg.Waves)
	}
	for j := range outs {
		if n := len(outs[j].Waves); n != cfg.Waves {
			return nil, fmt.Errorf("chaos: assemble: job %d accounts %d wave(s), want %d", j, n, cfg.Waves)
		}
		res.Mixes[j/cfg.Seeds].add(&outs[j])
		if err := mergeRunTelemetry(res.Telemetry, outs[j].Telemetry, j); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// decodePayloads JSON-decodes a space's keyed payloads into outcomes.
func decodePayloads[O any](payloads [][]byte, jobs int, kind string) ([]O, error) {
	if len(payloads) != jobs {
		return nil, fmt.Errorf("chaos: assemble: %d payload(s) for a %d-job %s", len(payloads), jobs, kind)
	}
	outs := make([]O, jobs)
	for j, p := range payloads {
		if p == nil {
			return nil, fmt.Errorf("chaos: assemble: job %d has no payload", j)
		}
		if err := json.Unmarshal(p, &outs[j]); err != nil {
			return nil, fmt.Errorf("chaos: assemble: job %d payload: %w", j, err)
		}
	}
	return outs, nil
}

// mergeRunTelemetry folds run job's JSONL telemetry block into the
// campaign registry (a no-op without Metrics). Schema drift is a hard
// error: two runs of the same config must expose the same metrics.
func mergeRunTelemetry(agg *telemetry.Registry, block string, job int) error {
	if agg == nil {
		return nil
	}
	if block == "" {
		return fmt.Errorf("chaos: assemble: job %d payload is missing its telemetry block", job)
	}
	reg, err := telemetry.ParseJSONL(strings.NewReader(block))
	if err != nil {
		return fmt.Errorf("chaos: assemble: job %d telemetry: %w", job, err)
	}
	if err := agg.Merge(reg); err != nil {
		return fmt.Errorf("chaos: assemble: job %d telemetry: %w", job, err)
	}
	return nil
}
