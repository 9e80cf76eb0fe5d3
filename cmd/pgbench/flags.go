package main

import (
	"flag"
	"strings"

	"pangenomicsbench/internal/gensim"
)

// addScenarioFlag registers -scenario on fs with the catalog names inlined
// in the help text; resolve the value with gensim.LookupScenario.
func addScenarioFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("scenario", def,
		"workload scenario: "+strings.Join(gensim.ScenarioNames(), ", "))
}
