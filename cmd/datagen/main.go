// Command datagen generates the paper's workloads to files: uniform or
// clustered vectors as one-vector-per-line text, synthetic gray-level
// images as binary PGM files, or word corpora as one word per line.
//
// Usage:
//
//	datagen -kind uniform -n 50000 -dim 20 -out vectors.txt
//	datagen -kind clustered -n 50000 -dim 20 -cluster 1000 -eps 0.15 -out clustered.txt
//	datagen -kind images -n 1151 -imgdim 64 -subjects 12 -out imgdir/
//	datagen -kind words -n 10000 -out words.txt
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"

	"mvptree/internal/dataset"
	"mvptree/internal/pgm"
	"mvptree/internal/vector"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	var (
		kind     = fs.String("kind", "uniform", "uniform | clustered | images | words")
		n        = fs.Int("n", 1000, "number of items to generate")
		dim      = fs.Int("dim", 20, "vector dimensionality")
		cluster  = fs.Int("cluster", 100, "cluster size (clustered)")
		eps      = fs.Float64("eps", 0.15, "perturbation amplitude (clustered)")
		imgDim   = fs.Int("imgdim", 64, "image side length (images)")
		subjects = fs.Int("subjects", 12, "distinct subjects (images)")
		seed     = fs.Uint64("seed", 1997, "generation seed")
		out      = fs.String("out", "", "output file, or directory for images (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	// The generators panic on a negative size; say which flag it was.
	for _, f := range []struct {
		name     string
		val, min int
	}{{"n", *n, 0}, {"dim", *dim, 1}, {"cluster", *cluster, 1}, {"imgdim", *imgDim, 1}, {"subjects", *subjects, 1}} {
		if f.val < f.min {
			return fmt.Errorf("-%s must be at least %d, got %d", f.name, f.min, f.val)
		}
	}
	// A NaN or infinite amplitude would write NaN coordinates.
	if math.IsNaN(*eps) || math.IsInf(*eps, 0) {
		return fmt.Errorf("-eps must be a finite number, got %g", *eps)
	}
	rng := rand.New(rand.NewPCG(*seed, 1))

	switch *kind {
	case "uniform":
		return writeVectors(*out, dataset.UniformVectors(rng, *n, *dim))
	case "clustered":
		return writeVectors(*out, dataset.ClusteredVectors(rng, *n, *dim, *cluster, *eps))
	case "images":
		imgs := dataset.SyntheticImages(rng, *n, dataset.ImageOptions{
			Width: *imgDim, Height: *imgDim, Subjects: *subjects,
		})
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		for i, im := range imgs {
			path := filepath.Join(*out, fmt.Sprintf("img%05d.pgm", i))
			if err := writePGM(path, im); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d PGM images to %s\n", len(imgs), *out)
		return nil
	case "words":
		words := dataset.Words(rng, *n, dataset.WordOptions{MisspellingsPer: 2})
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		for _, w := range words {
			if _, err := fmt.Fprintln(f, w); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d words to %s\n", len(words), *out)
		return f.Close()
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
}

func writeVectors(path string, vs [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := vector.WriteAll(f, vs); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d vectors to %s\n", len(vs), path)
	return nil
}

func writePGM(path string, im *pgm.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pgm.Encode(f, im); err != nil {
		return err
	}
	return f.Close()
}
