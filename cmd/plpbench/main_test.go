package main

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"plp/internal/experiments"
)

// ids returns the ids of list, in order.
func ids(list []experiments.Experiment) []string {
	out := make([]string, len(list))
	for i, x := range list {
		out[i] = x.ID
	}
	return out
}

// TestUsageNamesTheList checks that the -experiment flag's help and the
// command's documentation name exactly the listed experiments, in order.
func TestUsageNamesTheList(t *testing.T) {
	want := ids(experiments.Experiments)
	usage := strings.TrimSuffix(strings.TrimPrefix(experimentUsage(experiments.Experiments), "experiment to run: "), ", or all")
	if got := strings.Split(usage, ", "); !slices.Equal(got, want) {
		t.Errorf("-experiment help names %v, the list %v", got, want)
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)// Experiments: (.*?)\.  `).FindSubmatch(src)
	if m == nil {
		t.Fatal("the command documentation does not list the experiments")
	}
	if got := strings.Fields(strings.ReplaceAll(string(m[1]), "//", " ")); !slices.Equal(got, want) {
		t.Errorf("the command documentation names %v, the list %v", got, want)
	}
}

// TestRunVisitsTheList drives run over a list of stand-in experiments:
// "all" runs every one in order under its heading, an id runs only that
// one, an unknown id is an error, and a failing experiment stops the run
// with its error.
func TestRunVisitsTheList(t *testing.T) {
	var visited []string
	list := []experiments.Experiment{}
	for _, id := range []string{"one", "two", "three"} {
		list = append(list, experiments.Experiment{ID: id, Claim: "claim " + id, Run: func(experiments.Scale) (fmt.Stringer, error) {
			visited = append(visited, id)
			return result("table " + id), nil
		}})
	}

	var out strings.Builder
	if err := run(&out, list, "all", experiments.Scale{}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(visited, ids(list)) {
		t.Fatalf("all visited %v, want %v", visited, ids(list))
	}
	for _, id := range ids(list) {
		if !strings.Contains(out.String(), "== "+id+" ==\ntable "+id+"\n") {
			t.Fatalf("output lacks %s under its heading:\n%s", id, out.String())
		}
	}

	visited = nil
	if err := run(&out, list, "two", experiments.Scale{}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(visited, []string{"two"}) {
		t.Fatalf("-experiment two visited %v", visited)
	}

	if err := run(&out, list, "fig4", experiments.Scale{}); err == nil || !strings.Contains(err.Error(), `unknown experiment "fig4"`) {
		t.Fatalf("an unknown id returned %v", err)
	}

	fail := errors.New("load failed")
	list[1].Run = func(experiments.Scale) (fmt.Stringer, error) { return nil, fail }
	visited = nil
	if err := run(&out, list, "all", experiments.Scale{}); !errors.Is(err, fail) {
		t.Fatalf("a failing experiment returned %v, want %v", err, fail)
	}
	if !slices.Equal(visited, []string{"one"}) {
		t.Fatalf("the run went on past a failure: visited %v", visited)
	}
}

// result is a stand-in experiment result.
type result string

func (r result) String() string { return string(r) }
