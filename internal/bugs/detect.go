package bugs

import (
	"fmt"

	meissa "repro"
	"repro/internal/baselines"
	"repro/internal/driver"
	"repro/internal/switchsim"
)

// Detection is one cell of the Table 2 matrix.
type Detection struct {
	Detected bool
	Why      string
}

// Row is one scenario's detection results across all tools.
type Row struct {
	Scenario *Scenario
	Meissa   Detection
	P4Pktgen Detection
	PTA      Detection
	Gauntlet Detection
	Aquila   Detection
}

// RunAll evaluates all 16 scenarios against all five tools, producing the
// Table 2 matrix by actually running each tool's methodology.
func RunAll() ([]*Row, error) {
	var rows []*Row
	for _, s := range Scenarios() {
		row, err := RunOne(s)
		if err != nil {
			return nil, fmt.Errorf("bugs: scenario %d (%s): %w", s.Index, s.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunOne evaluates one scenario; a tool's error names its Table 2 column.
func RunOne(s *Scenario) (*Row, error) {
	row := &Row{Scenario: s}
	var err error
	if row.Meissa, err = DetectMeissa(s); err != nil {
		return nil, fmt.Errorf("Meissa: %w", err)
	}
	if row.P4Pktgen, err = DetectP4Pktgen(s); err != nil {
		return nil, fmt.Errorf("p4pktgen: %w", err)
	}
	if row.PTA, err = DetectPTA(s); err != nil {
		return nil, fmt.Errorf("PTA: %w", err)
	}
	if row.Gauntlet, err = DetectGauntlet(s); err != nil {
		return nil, fmt.Errorf("Gauntlet: %w", err)
	}
	if row.Aquila, err = DetectAquila(s); err != nil {
		return nil, fmt.Errorf("Aquila: %w", err)
	}
	return row, nil
}

// DetectMeissa runs the full pipeline: generate with full coverage, inject
// into the (fault-compiled) target, apply every check.
func DetectMeissa(s *Scenario) (Detection, error) {
	opts := meissa.Options{MaxPaths: baselines.Budget}
	sys, err := meissa.New(s.Prog, s.Rules, s.Specs, opts)
	if err != nil {
		return Detection{}, err
	}
	gen, err := sys.Generate()
	if err != nil {
		return Detection{}, err
	}
	target, err := switchsim.Compile(s.Prog, s.Rules, s.Faults)
	if err != nil {
		return Detection{}, err
	}
	rep, err := sys.TestTarget(target, gen)
	if err != nil {
		return Detection{}, err
	}
	if rep.Failed > 0 {
		return Detection{Detected: true, Why: firstFailure(rep)}, nil
	}
	return Detection{Why: fmt.Sprintf("all %d cases passed", rep.Passed)}, nil
}

// DetectP4Pktgen runs p4pktgen's methodology: symbolic test generation
// without table rules or production features, comparing the compiled
// target's output against the model prediction plus basic sanity checks.
func DetectP4Pktgen(s *Scenario) (Detection, error) {
	if s.Production {
		return Detection{Why: "unsupported: production-scale program with custom table rules"}, nil
	}
	if s.TofinoSpecific {
		return Detection{Why: "unsupported: target-specific functionality outside p4pktgen's subset"}, nil
	}
	return runModelVsTarget(s, baselines.P4Pktgen{}, "p4pktgen")
}

// DetectGauntlet runs Gauntlet's model-based testing: rule-less
// enumeration on small programs, model vs compiled target.
func DetectGauntlet(s *Scenario) (Detection, error) {
	if s.Production {
		return Detection{Why: "unsupported: model-based mode does not scale to production programs"}, nil
	}
	return runModelVsTarget(s, baselines.Gauntlet{}, "Gauntlet")
}

// runModelVsTarget generates templates with the given tool (no rules, no
// intent), executes them on the faulty target, and reports any prediction
// or sanity failure.
func runModelVsTarget(s *Scenario, tool baselines.Generator, name string) (Detection, error) {
	_, templates, err := tool.Generate(s.Prog, s.Rules, baselines.Budget)
	if err != nil {
		return Detection{Why: fmt.Sprintf("%s: %v", name, err)}, nil
	}
	target, err := switchsim.Compile(s.Prog, s.Rules, s.Faults)
	if err != nil {
		return Detection{}, err
	}
	// The tools share Meissa's CFG encoding for concretization.
	sys, err := meissa.New(s.Prog, s.Rules, nil, meissa.Options{})
	if err != nil {
		return Detection{}, err
	}
	gen, err := sys.Generate() // graph only; templates come from the tool
	if err != nil {
		return Detection{}, err
	}
	d := driver.New(s.Prog, gen.Graph, driver.NewLoopback(target), nil)
	d.Checks = driver.Checks{Prediction: true, Sanity: true}
	rep, err := d.RunTemplates(templates)
	if err != nil {
		return Detection{}, err
	}
	if rep.Failed > 0 {
		return Detection{Detected: true, Why: firstFailure(rep)}, nil
	}
	return Detection{Why: fmt.Sprintf("all %d cases passed", rep.Passed)}, nil
}

// DetectPTA runs PTA's methodology: execute the pre-existing handwritten
// assertion tests (when any exist, and only for P4-14-era programs).
func DetectPTA(s *Scenario) (Detection, error) {
	if s.UsesP4_16 {
		return Detection{Why: "unsupported: program uses P4-16"}, nil
	}
	if len(s.Handwritten) == 0 {
		return Detection{Why: "no handwritten unit test covers this behaviour"}, nil
	}
	opts := meissa.Options{MaxPaths: baselines.Budget}
	sys, err := meissa.New(s.Prog, s.Rules, s.Handwritten, opts)
	if err != nil {
		return Detection{}, err
	}
	gen, err := sys.Generate()
	if err != nil {
		return Detection{}, err
	}
	target, err := switchsim.Compile(s.Prog, s.Rules, s.Faults)
	if err != nil {
		return Detection{}, err
	}
	d := driver.New(s.Prog, gen.Graph, driver.NewLoopback(target), s.Handwritten)
	// PTA checks only its compiled-in assertions (and that packets come
	// back well-formed).
	d.Checks = driver.Checks{Specs: true, Sanity: true}
	// Handwritten suites are small: a handful of cases, not full path
	// coverage.
	templates := gen.Templates
	if len(templates) > 5 {
		templates = templates[:5]
	}
	rep, err := d.RunTemplates(templates)
	if err != nil {
		return Detection{}, err
	}
	if rep.Failed > 0 {
		return Detection{Detected: true, Why: firstFailure(rep)}, nil
	}
	return Detection{Why: fmt.Sprintf("all %d handwritten cases passed", rep.Passed)}, nil
}

// DetectAquila runs verification: explore the program symbolically,
// predict each path's output from source semantics alone (never executing
// the target), and check the intent against the predictions. Compiler and
// backend faults are invisible by construction; checksum reasoning is
// outside the solver's theories (§6).
func DetectAquila(s *Scenario) (Detection, error) {
	opts := meissa.Options{MaxPaths: baselines.Budget}
	sys, err := meissa.New(s.Prog, s.Rules, s.Specs, opts)
	if err != nil {
		return Detection{}, err
	}
	gen, err := sys.Generate()
	if err != nil {
		return Detection{}, err
	}
	if gen.Truncated {
		return Detection{Why: "verification exceeded its work budget"}, nil
	}
	// Prediction-only checking: no link, no target.
	d := driver.New(s.Prog, gen.Graph, nil, s.Specs)
	for i, t := range gen.Templates {
		c, err := d.Concretize(t, uint64(i+1))
		if err != nil {
			return Detection{}, err
		}
		if c.SkipReason != "" {
			continue
		}
		for _, sp := range s.Specs {
			if !d.SpecApplies(sp, c.Input) {
				continue
			}
			if vs := sp.Check(s.Prog, c.Input, c.Expected); len(vs) > 0 {
				return Detection{Detected: true, Why: vs[0].String()}, nil
			}
		}
	}
	return Detection{Why: "all symbolic predictions satisfy the intent"}, nil
}

func firstFailure(rep *driver.Report) string {
	for _, o := range rep.Outcomes {
		if o.Pass {
			continue
		}
		switch {
		case len(o.ChecksumErrors) > 0:
			return "checksum: " + o.ChecksumErrors[0]
		case len(o.Violations) > 0:
			return o.Violations[0].String()
		case len(o.Mismatches) > 0:
			return o.Mismatches[0]
		}
	}
	return "failure"
}
