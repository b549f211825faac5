// Package orchestrator implements the paper's first future-work direction:
// "a declarative language for cluster-wide extension orchestration" (§7).
//
// A plan is a small line-oriented program:
//
//	# define extensions
//	extension sampler   udf "len > 128 && proto != 3"
//	extension filler    synthetic 1300
//	extension ratelimit wasm-gen 7 200
//
//	# deploy them (with ordering and consistency choices)
//	deploy sampler   to ingress on edge-1, edge-2
//	deploy ratelimit to ingress on * with bbu
//	limit  ingress on * 100000
//	rollback ingress on edge-1
//
// Statements execute in order against CodeFlows registered with the
// orchestrator; `on *` targets every node; `with bbu` upgrades a multi-node
// deploy to a Big Bubble Update broadcast. The orchestrator is deliberately
// thin — every statement lowers onto Table 1 operations — which is the
// point: CodeFlow is sufficient vocabulary for cluster-wide rollouts.
package orchestrator

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"rdx/internal/cluster"
	"rdx/internal/core"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ext"
	"rdx/internal/udf"
)

// Orchestrator executes plans against a set of named CodeFlows.
type Orchestrator struct {
	cp    *core.ControlPlane
	flows map[string]*core.CodeFlow
}

// New creates an orchestrator over a control plane.
func New(cp *core.ControlPlane) *Orchestrator {
	return &Orchestrator{cp: cp, flows: map[string]*core.CodeFlow{}}
}

// AddNode registers a CodeFlow under a node name.
func (o *Orchestrator) AddNode(name string, cf *core.CodeFlow) {
	o.flows[name] = cf
}

// Nodes lists registered node names, sorted.
func (o *Orchestrator) Nodes() []string {
	out := make([]string, 0, len(o.flows))
	for n := range o.flows {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Plan is a parsed orchestration program.
type Plan struct {
	Extensions map[string]*ext.Extension
	Steps      []Step
}

// StepKind enumerates statement types.
type StepKind uint8

const (
	StepDeploy StepKind = iota + 1
	StepLimit
	StepRollback
	StepStatus
)

// Step is one executable statement.
type Step struct {
	Kind  StepKind
	Ext   string   // deploy
	Hook  string   // deploy / limit / rollback
	Nodes []string // nil means all
	BBU   bool     // deploy
	Limit uint64   // limit
	Line  int
}

// Parse compiles plan source.
func Parse(src string) (*Plan, error) {
	plan := &Plan{Extensions: map[string]*ext.Extension{}}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := tokenize(line)
		if err != nil {
			return nil, fmt.Errorf("orchestrator: line %d: %w", lineNo+1, err)
		}
		if err := plan.parseStatement(fields, lineNo+1); err != nil {
			return nil, fmt.Errorf("orchestrator: line %d: %w", lineNo+1, err)
		}
	}
	if len(plan.Steps) == 0 {
		return nil, fmt.Errorf("orchestrator: plan has no executable steps")
	}
	return plan, nil
}

// tokenize splits on spaces, honoring double-quoted strings.
func tokenize(line string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			inQuote = !inQuote
		case (c == ' ' || c == '\t' || c == ',') && !inQuote:
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out, nil
}

func (p *Plan) parseStatement(f []string, line int) error {
	switch f[0] {
	case "extension":
		if len(f) < 3 {
			return fmt.Errorf("extension <name> <udf|synthetic|wasm-gen> args...")
		}
		name := f[1]
		if _, dup := p.Extensions[name]; dup {
			return fmt.Errorf("extension %q redefined", name)
		}
		e, err := buildExtension(name, f[2], f[3:])
		if err != nil {
			return err
		}
		p.Extensions[name] = e
		return nil

	case "deploy":
		// deploy <ext> to <hook> on <node,...|*> [with bbu]
		ext, rest, err := expect(f[1:], "to")
		if err != nil {
			return err
		}
		hook, rest, err := expect(rest, "on")
		if err != nil {
			return err
		}
		if len(rest) == 0 {
			return fmt.Errorf("deploy needs target nodes")
		}
		step := Step{Kind: StepDeploy, Ext: ext, Hook: hook, Line: line}
		for i := 0; i < len(rest); i++ {
			if rest[i] == "with" {
				if i+1 >= len(rest) || rest[i+1] != "bbu" {
					return fmt.Errorf("only 'with bbu' is supported")
				}
				step.BBU = true
				break
			}
			if rest[i] == "*" {
				step.Nodes = nil
				continue
			}
			step.Nodes = append(step.Nodes, rest[i])
		}
		if _, ok := p.Extensions[ext]; !ok {
			return fmt.Errorf("deploy of undefined extension %q", ext)
		}
		p.Steps = append(p.Steps, step)
		return nil

	case "limit":
		// limit <hook> on <nodes|*> <maxInsns>
		hook, rest, err := expect(f[1:], "on")
		if err != nil {
			return err
		}
		if len(rest) < 2 {
			return fmt.Errorf("limit <hook> on <nodes|*> <maxInsns>")
		}
		max, err := strconv.ParseUint(rest[len(rest)-1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad limit %q", rest[len(rest)-1])
		}
		step := Step{Kind: StepLimit, Hook: hook, Limit: max, Line: line}
		for _, n := range rest[:len(rest)-1] {
			if n != "*" {
				step.Nodes = append(step.Nodes, n)
			}
		}
		p.Steps = append(p.Steps, step)
		return nil

	case "rollback":
		// rollback <hook> on <nodes|*>
		hook, rest, err := expect(f[1:], "on")
		if err != nil {
			return err
		}
		step := Step{Kind: StepRollback, Hook: hook, Line: line}
		for _, n := range rest {
			if n != "*" {
				step.Nodes = append(step.Nodes, n)
			}
		}
		p.Steps = append(p.Steps, step)
		return nil

	case "status":
		// status [on <nodes|*>] — print what the control plane believes is
		// deployed where: the same deployed-version map a journal replay
		// reconstructs, so a status after failover is an HA smoke check.
		step := Step{Kind: StepStatus, Line: line}
		if len(f) > 1 {
			if f[1] != "on" || len(f) < 3 {
				return fmt.Errorf("status [on <nodes|*>]")
			}
			for _, n := range f[2:] {
				if n != "*" {
					step.Nodes = append(step.Nodes, n)
				}
			}
		}
		p.Steps = append(p.Steps, step)
		return nil

	default:
		return fmt.Errorf("unknown statement %q", f[0])
	}
}

// expect consumes tokens up to a keyword, returning (head, tail-after-kw).
func expect(f []string, kw string) (string, []string, error) {
	if len(f) < 3 {
		return "", nil, fmt.Errorf("expected '<arg> %s ...'", kw)
	}
	if f[1] != kw {
		return "", nil, fmt.Errorf("expected %q after %q", kw, f[0])
	}
	return f[0], f[2:], nil
}

func buildExtension(name, kind string, args []string) (*ext.Extension, error) {
	switch kind {
	case "udf":
		if len(args) != 1 {
			return nil, fmt.Errorf("udf takes one quoted expression")
		}
		p, err := udf.New(name, args[0])
		if err != nil {
			return nil, err
		}
		return ext.FromUDF(p), nil
	case "synthetic":
		if len(args) != 1 {
			return nil, fmt.Errorf("synthetic takes an instruction count")
		}
		size, err := strconv.Atoi(args[0])
		if err != nil || size < 16 {
			return nil, fmt.Errorf("bad synthetic size %q", args[0])
		}
		return ext.FromEBPF(progen.MustGenerate(progen.Options{
			Size: size, Seed: int64(len(name)), WithHelpers: true,
		})), nil
	case "wasm-gen":
		if len(args) != 2 {
			return nil, fmt.Errorf("wasm-gen takes <generation> <filler>")
		}
		gen, err1 := strconv.Atoi(args[0])
		filler, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad wasm-gen args %v", args)
		}
		e := cluster.GenerationExt(ext.KindWasm, gen, filler)
		e.Wasm.Name = name
		return e, nil
	default:
		return nil, fmt.Errorf("unknown extension kind %q", kind)
	}
}

// StepResult reports one executed step.
type StepResult struct {
	Step     Step
	Took     time.Duration
	Versions []uint64
	// Info carries human-readable output lines (the status statement's
	// deployed-version report).
	Info []string
	// Err, when non-nil, is a *StepError carrying the statement's line.
	Err error
}

// Result aggregates a plan execution.
type Result struct {
	Steps []StepResult
	Took  time.Duration
}

// StepError is one failed statement, tagged with its plan line. Execute
// aggregates them with errors.Join, so errors.As recovers each line and
// errors.Is still matches the underlying causes (core.ErrFenced, ...).
type StepError struct {
	Line int
	Kind StepKind
	Err  error
}

func (e *StepError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }
func (e *StepError) Unwrap() error { return e.Err }

// Execute runs every statement in order. A failing statement no longer
// aborts the plan: it is recorded (as a *StepError with its line number)
// and execution continues, so one bad node or hook doesn't strand the
// rest of a fleet-wide rollout half-applied with no report of what else
// would have happened. The aggregate error joins every step failure.
func (o *Orchestrator) Execute(plan *Plan) (*Result, error) {
	start := time.Now()
	res := &Result{}
	var errs []error
	for _, step := range plan.Steps {
		sr := o.executeStep(plan, step)
		if sr.Err != nil {
			sr.Err = &StepError{Line: step.Line, Kind: step.Kind, Err: sr.Err}
			errs = append(errs, sr.Err)
		}
		res.Steps = append(res.Steps, sr)
	}
	res.Took = time.Since(start)
	if len(errs) > 0 {
		return res, fmt.Errorf("orchestrator: %d of %d statements failed: %w",
			len(errs), len(plan.Steps), errors.Join(errs...))
	}
	return res, nil
}

func (o *Orchestrator) targets(names []string) ([]*core.CodeFlow, error) {
	if len(names) == 0 {
		out := make([]*core.CodeFlow, 0, len(o.flows))
		for _, n := range o.Nodes() {
			out = append(out, o.flows[n])
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no nodes registered")
		}
		return out, nil
	}
	out := make([]*core.CodeFlow, 0, len(names))
	for _, n := range names {
		cf, ok := o.flows[n]
		if !ok {
			return nil, fmt.Errorf("unknown node %q", n)
		}
		out = append(out, cf)
	}
	return out, nil
}

func (o *Orchestrator) executeStep(plan *Plan, step Step) (sr StepResult) {
	sr = StepResult{Step: step}
	t0 := time.Now()
	defer func() { sr.Took = time.Since(t0) }()

	cfs, err := o.targets(step.Nodes)
	if err != nil {
		sr.Err = err
		return sr
	}

	switch step.Kind {
	case StepDeploy:
		e := plan.Extensions[step.Ext]
		if step.BBU || len(cfs) > 1 {
			rep, err := core.Group(cfs).Broadcast(e, core.BroadcastOptions{
				Hook: step.Hook, BBU: step.BBU,
			})
			if err == nil {
				for _, o := range rep.Outcomes {
					sr.Versions = append(sr.Versions, o.Version)
				}
			}
			sr.Err = err
			return sr
		}
		rep, err := cfs[0].InjectExtension(e, step.Hook)
		if err == nil {
			sr.Versions = []uint64{rep.Version}
		}
		sr.Err = err
		return sr

	case StepLimit:
		for _, cf := range cfs {
			if err := cf.SetRuntimeLimit(step.Hook, step.Limit); err != nil {
				sr.Err = err
				return sr
			}
		}
		return sr

	case StepRollback:
		for _, cf := range cfs {
			if _, err := cf.Rollback(step.Hook); err != nil {
				sr.Err = err
				return sr
			}
		}
		return sr

	case StepStatus:
		names := step.Nodes
		if len(names) == 0 {
			names = o.Nodes()
		}
		deployed := o.cp.DeployedVersions()
		for _, name := range names {
			cf, ok := o.flows[name]
			if !ok {
				sr.Err = fmt.Errorf("unknown node %q", name)
				return sr
			}
			key := cf.NodeKey()
			var lines []string
			for k, dv := range deployed {
				if k.Node != key {
					continue
				}
				lines = append(lines, fmt.Sprintf("%s %s: version=%d digest=%.12s blob=%#x",
					name, k.Hook, dv.Version, dv.Digest, dv.Blob))
			}
			sort.Strings(lines)
			if len(lines) == 0 {
				lines = []string{fmt.Sprintf("%s: nothing deployed", name)}
			}
			sr.Info = append(sr.Info, lines...)
		}
		return sr
	}
	sr.Err = fmt.Errorf("unknown step kind %d", step.Kind)
	return sr
}
