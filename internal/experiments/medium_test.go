//go:build medium

package experiments

import "testing"

// TestFigureMedium holds Figures 2, 3, 5, 8 and 9 at Medium scale to
// testdata/figures_medium.txt, the same lines the Small goldens pin. The
// sweep takes minutes, so it runs only under the medium build tag:
//
//	go test -tags medium -run FigureMedium ./internal/experiments
func TestFigureMedium(t *testing.T) {
	const file = "figures_medium.txt"
	fig2, err := Figure2(Medium)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, file, "fig2", fig2Golden(fig2))
	fig3, err := Figure3(Medium, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, file, "fig3", fig3Golden(fig3))
	fig5, err := Figure5(Medium)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, file, "fig5", fig5Golden(fig5))
	fig8, err := Figure8(Medium)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, file, "fig8", fig8Golden(fig8))
	fig9, err := Figure9(Medium)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, file, "fig9", fig9Golden(fig9))
}
