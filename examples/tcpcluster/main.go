// Tcpcluster deploys the school federation as three real TCP servers on
// loopback ports, then acts as the global processing site: it sends local
// queries to the sites, the sites dispatch assistant-object checks to each
// other over their own connections, and the coordinator certifies the
// collected results. The same engine code that runs inside the simulator
// here runs across actual sockets.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"

	hetfed "github.com/hetfed/hetfed"
)

func main() {
	fx := hetfed.SchoolExample()

	// Start one server per component database on an ephemeral port, wire
	// them to each other and to the coordinator.
	coord := &hetfed.RemoteCoordinator{}
	cluster, err := hetfed.StartCluster(hetfed.ClusterConfig{
		Federation:  &hetfed.FederationDoc{Global: fx.Global, Databases: fx.Databases, Tables: fx.Mapping},
		Coordinator: coord,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	for _, site := range cluster.Sites() {
		fmt.Printf("site %s listening on %s\n", site, coord.Sites[site])
	}

	if err := coord.Ping(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nquery: %s\n", hetfed.SchoolQ1)
	for _, alg := range hetfed.AllAlgorithms() {
		ans, elapsed, err := coord.Query(hetfed.SchoolQ1, alg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%v over TCP (%.2f ms):\n", alg, float64(elapsed.Microseconds())/1e3)
		for _, r := range ans.Certain {
			fmt.Printf("  certain: %s\n", r)
		}
		for _, r := range ans.Maybe {
			fmt.Printf("  maybe:   %s\n", r)
		}
	}

	// The federation is writable: the coordinator is the mapping authority,
	// inserts go to the owning site, and the mapping-table replicas are
	// maintained through broadcast deltas. Insert Haley's missing DB2
	// record — Tony's advisor.speciality predicate then certifies through
	// the new assistant object.
	matcher := hetfed.NewMatcher(fx.Global)
	if err := matcher.Adopt(fx.Databases, coord.Tables.Clone()); err != nil {
		log.Fatal(err)
	}
	coord.Matcher = matcher
	coord.Tables = matcher.Tables()

	goid, err := coord.Insert("DB2", hetfed.NewObject("t9'", "Teacher", map[string]hetfed.Value{
		"name": hetfed.Str("Haley"), "speciality": hetfed.Str("database"),
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninserted Haley's record at DB2 (matched entity %s)\n", goid)

	ans, _, err := coord.Query(hetfed.SchoolQ1, hetfed.BL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBL after the insert:")
	for _, r := range ans.Certain {
		fmt.Printf("  certain: %s\n", r)
	}
	for _, r := range ans.Maybe {
		fmt.Printf("  maybe:   %s (unknown predicates: %v — only the address remains)\n", r, r.Unknown)
	}
}
