// Consistency: run the sequential-consistency litmus suite on the SCORPIO
// machine — the simulator's analog of the chip's functional-verification
// regressions (Section 4.3). Table 2 lists SCORPIO's consistency model as
// sequential consistency; the globally ordered request stream is what makes
// that cheap.
//
//	go run ./examples/consistency
package main

import (
	"fmt"
	"log"

	"scorpio/internal/litmus"
	"scorpio/internal/stats"
)

func main() {
	fmt.Println("Running SC litmus tests on a 16-core SCORPIO machine (25 randomized runs each):")
	var rows [][]string
	for _, test := range litmus.Suite() {
		res, err := litmus.Run(litmus.Machine{Width: 4, Height: 4}, test, 25, 42)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "OK: no SC violation"
		if res.Violations > 0 {
			verdict = fmt.Sprintf("VIOLATED %d times", res.Violations)
		}
		rows = append(rows, []string{test.Name, fmt.Sprint(len(res.Outcomes)), verdict})
	}
	fmt.Println(stats.Table("", []string{"test", "distinct outcomes", "verdict"}, rows))
	fmt.Println("Every outcome observed across the runs is sequentially consistent:")
	fmt.Println("the ordered GO-REQ stream serialises writes identically at every tile.")
}
