# Figure pins: the SHA-256 of every figure/table driver's --csv
# stdout, checked by cmake/StratFigureCheck.cmake.
#
#   strat_figure(<driver> [THREADS] [FLAGS "<reduced flags>"]
#                DIGEST <sha256> [FULL_DIGEST <sha256>])
#
# registers figure_<driver> (label `figures`, tier-1), which runs the
# driver with FLAGS (flags it already takes, sized for a second or
# less) and compares against DIGEST, and, for drivers with FLAGS,
# figure_<driver>_full (labels `figures` and `slow`, disabled unless
# STRAT_RUN_SLOW_TESTS=ON), which runs the default size against
# FULL_DIGEST. A THREADS driver runs at --threads 1 and at 4 against the
# same digest. Every driver writes banners and timings to stderr under
# --csv, so stdout depends only on the flags and no column is filtered.
#
# bench/figures/<driver>.csv holds the pinned reduced-size output (its
# SHA-256 is DIGEST, checked at configure time), so a moved figure names
# the first line and column that moved, old against new, and leaves its
# new CSV at <build>/bench/figures/<driver>.csv.
#
# A moved digest is a changed figure. Re-pin by copying the new CSV over
# bench/figures/<driver>.csv and the digest the failing entry prints
# (ctest -L figures --output-on-failure) into DIGEST, and say why the
# figure moved in CHANGES.md.

set(STRAT_FIGURE_CHECK ${PROJECT_SOURCE_DIR}/cmake/StratFigureCheck.cmake)
set(STRAT_PINNED_FIGURES "")

function(strat_figure driver)
  cmake_parse_arguments(PARSE_ARGV 1 pin "THREADS" "FLAGS;DIGEST;FULL_DIGEST" "")
  set(threads "")
  if(pin_THREADS)
    set(threads "1 4")
  endif()
  set(pinned_csv ${CMAKE_CURRENT_SOURCE_DIR}/figures/${driver}.csv)
  if(NOT EXISTS ${pinned_csv})
    message(SEND_ERROR "strat: bench/figures/${driver}.csv is missing: commit the pinned output")
  else()
    file(SHA256 ${pinned_csv} pinned_digest)
    if(NOT pinned_digest STREQUAL pin_DIGEST)
      message(SEND_ERROR "strat: bench/figures/${driver}.csv does not hash to its DIGEST")
    endif()
  endif()
  add_test(NAME figure_${driver}
    COMMAND ${CMAKE_COMMAND} -DDRIVER=$<TARGET_FILE:${driver}> "-DARGS=${pin_FLAGS}"
            "-DTHREADS=${threads}" -DDIGEST=${pin_DIGEST} -DPINNED_CSV=${pinned_csv}
            -DGOT_CSV=${CMAKE_CURRENT_BINARY_DIR}/figures/${driver}.csv
            -P ${STRAT_FIGURE_CHECK})
  set_tests_properties(figure_${driver} PROPERTIES LABELS figures TIMEOUT 120)
  if(pin_FULL_DIGEST)
    add_test(NAME figure_${driver}_full
      COMMAND ${CMAKE_COMMAND} -DDRIVER=$<TARGET_FILE:${driver}>
              "-DTHREADS=${threads}" -DDIGEST=${pin_FULL_DIGEST} -P ${STRAT_FIGURE_CHECK})
    set_tests_properties(figure_${driver}_full PROPERTIES LABELS "figures;slow" TIMEOUT 900)
    if(NOT STRAT_RUN_SLOW_TESTS)
      set_tests_properties(figure_${driver}_full PROPERTIES DISABLED TRUE)
    endif()
  endif()
  set(STRAT_PINNED_FIGURES ${STRAT_PINNED_FIGURES} ${driver} PARENT_SCOPE)
endfunction()

strat_figure(ablation_churn
  FLAGS "--n 200 --units 5"
  DIGEST 87120470c9e2ba6df4370391bb3fe058464494078abac4473f3de52256117f6f
  FULL_DIGEST 543e998963e8c2413b7cebebab4c1f482777772a25bcb343b2c402ba79d7a9c9)
strat_figure(ablation_disorder
  FLAGS "--n 200"
  DIGEST c092ee0b1704e175505196e35a5ed59035614e9ecf6cf298dcedd30a9a5f7461
  FULL_DIGEST 486151ca67ee51245e5588751426db175ffde84171cc5850a8333fadd4653c6b)
strat_figure(ablation_initiative
  FLAGS "--n 200 --seeds 2"
  DIGEST 811d000d41106fa584bbeee4ce328c4ee84f206e2c4efd9946f07628cf741f38
  FULL_DIGEST d1e8df3d5ede4a467d908e54ecc76d01b30dca2b1fdedc82e57c5813756ef20a)
strat_figure(ablation_smoothing
  FLAGS "--peers 60"
  DIGEST ebae101282926bdbdab75b50e6990a7605af364171286ff268b2ad04600050d8
  FULL_DIGEST e413bbbc28b59d0ec5cb1c4d205ea658e334341fe771ff41d3da9292ea896bde)
strat_figure(ablation_ties
  FLAGS "--n 300"
  DIGEST d83779fd11dafba4e638228047ffc677fb5d880d6bc58b3a0e93005ed3589ab9
  FULL_DIGEST 92b3b81e239a0b6d3787cf3deef5e140b3d5a959096009f9486e327462066ff8)
strat_figure(baseline_edonkey
  FLAGS "--n 300"
  DIGEST ecb33323b9ed02ac213e8a9cf1feab5297d92b676db14a65af3e1e9899ebb52c
  FULL_DIGEST 90221dbdf84c9bf5eb797a58e4061d3435159cf6be327efc1b3aeb5ffa2f2572)
strat_figure(ext_gossip_discovery
  FLAGS "--peers 100 --units 60"
  DIGEST c2329c3533c0724625793f70df796a740b565abb2a2969334fc7b2054c9604c2
  FULL_DIGEST 093db47e6dc149e7b7d8411461b6a980c1d6e39e2930fe6ed4e832b65b6d8a7c)
strat_figure(ext_hybrid_overlay
  FLAGS "--n 200"
  DIGEST b1bf241d2d83fdbd9d5feba10c0b868a877f3bdb1f96a31feb94db0a97410613
  FULL_DIGEST c39172b14ef402295ae951a1a98b4c3356a040883bb1bed160598b3cbfede7a7)
strat_figure(fig01_convergence
  FLAGS "--units 2"
  DIGEST a1042e24815bbac316a4e894f72809fb5e8fcee4f442813613912e301d6d57b7
  FULL_DIGEST c60084d6f9445c2440452858e837043c52fe0191281c061e596bfd5f930cd662)
strat_figure(fig02_removal
  FLAGS "--n 300 --units 5"
  DIGEST 1947b88e43901ddef04aa3c49a64477b84b980470a7b015f4c92c3c15e70b561
  FULL_DIGEST 5e5ea15cc04cdaebb48b33afb555b40c9e3ffdfc33b5524ed62729c358267e7d)
strat_figure(fig03_churn
  FLAGS "--n 300 --units 5"
  DIGEST 97369b5ba97afa831ed2ed39b16f76e582cd65210fc0f6d64dd9e8383020340a
  FULL_DIGEST b5f8de614f573721084b021627c67edefc0dffc9640db0583085c85dbfa0508e)
strat_figure(fig04_05_clusters
  FLAGS "--n 7"
  DIGEST 63887a4b6815f654ec6c4947e325e39815d93989ff08d76c91b27089008f3a5b
  FULL_DIGEST 583f36ac034bdd5d2112c3613ae0a1efa93ced972c1fd716964a14783f1c87a0)
strat_figure(fig06_sigma_sweep THREADS
  FLAGS "--n 6000 --seeds 1"
  DIGEST 638ba8c392d81eac4011b1af0027144fb7bdaa69f11e30e23086ed36409aabaf
  FULL_DIGEST 496ad2b601785574d92489a5437533b5ef639ffc3bea269fd7d71da9cefac2b3)
strat_figure(fig07_exact_vs_approx
  DIGEST 882027d2e476fb5cbfc95ed5e63ffc89aefd08f81f7d7456c9ba4bbce55d37e5)
strat_figure(fig08_mate_distribution
  FLAGS "--n 1000 --bins 10"
  DIGEST fa3071f57875467a6c77fa6fe17f6215af7777e11266262a90eedebf50dc0b30
  FULL_DIGEST 07766d680ec5a070afc8fabc077682ffed3a64285f742e4a337b3b8e1e1534b0)
strat_figure(fig09_validation THREADS
  FLAGS "--n 1000 --realizations 60"
  DIGEST b772ddc46868ff7d527a1d0ee541b078b80ba58f8d3ee3e8249b6ff1973f514d
  FULL_DIGEST 0663d3006dcb32495c9e572d45e86466b398fc58e3b6a82d288de82bdcf549fc)
strat_figure(fig10_bandwidth_cdf
  DIGEST e9a3a0da171abcb0ef5f3aa38434a384a0111ac9c1cfe97ef2d7dee2a987d16a)
strat_figure(fig11_efficiency
  FLAGS "--n 500"
  DIGEST 2a2acdb1a1fb3bc14e75afe500607db0a6e9731755e6a7c3d93752bea164fb6d
  FULL_DIGEST a3d09b70735f7303d7ac9e815d9557b4118fd7942346a77d3d3fffa4a7e121c3)
strat_figure(fig_fluid_limit
  FLAGS "--d 5"
  DIGEST 3eca1235a1783bfc6970e045f0601b7e4b592e8b714d8d961cb2d35bebf63907
  FULL_DIGEST c0a088e74cf5ce52766ec6369b6635a8ff1ebdc8b3daaf1fea8d19a460008409)
strat_figure(sec6_slot_strategy
  FLAGS "--n 200 --realizations 10 --maxslots 4"
  DIGEST b11bfeb8158460d3051a22d64e3fb9bc4046e34292b3c4a1d79e65eac235d615
  FULL_DIGEST cbb190cf7c988936c0aefdc177823f158084d6f8ffc80cc8403b6137c2915d20)
strat_figure(swarm_asymmetry THREADS
  FLAGS "--peers 60 --reps 2 --warmup 4 --window 8"
  DIGEST de7ef11a9c3617cd3e1fbbdb9069cb6b3d0e586c18ad42072a52ad31bab8ab9c
  FULL_DIGEST f7a1694b046b1e41fd6da6863d39e7f87b6fdee121c87fdbf91d398f47883d69)
strat_figure(swarm_churn THREADS
  FLAGS "--peers 150 --reps 2 --warmup 4 --window 8"
  DIGEST febc429cf65241994c7ccfa88664547f72d920c66d26420b85b21bb674fe57e9
  FULL_DIGEST fd1310cc644190201deacbd5c848bcd2509cb76aa2dc273d732bcf30ac92f1d7)
strat_figure(swarm_faults THREADS
  FLAGS "--peers 150 --reps 2 --warmup 4 --window 8"
  DIGEST 458dd2d8419facebab06e3f0f84bf7074a5243b379f56dcb2273e93f2d24f562
  FULL_DIGEST cb15aa66f3c6249afc6c3cf0725abfdc74a96e7225f461f9a84636f1a72e6082)
strat_figure(swarm_flashcrowd
  FLAGS "--peers 60 --rounds 20"
  DIGEST 45bb0d52f926ef688ee41afa849c00d23963de6c663b6882a8848006a22798bf
  FULL_DIGEST d2e57212e7565d6e52557a7dd90deb781590593add679334f31e765f941973ce)
strat_figure(swarm_heteroslots THREADS
  FLAGS "--peers 60 --reps 2 --warmup 4 --window 8"
  DIGEST 7f75382ccc25fe0f708565145960553f554526578a27cc28490e0a5dddd71151
  FULL_DIGEST 40cf4a558475bdd6591681904ce6fd2ca401b0912f2670f56e2eb864dd2b7672)
strat_figure(swarm_multiswarm THREADS
  FLAGS "--peers 40 --warmup 4 --window 8"
  DIGEST 836f363dac32ffa8d78bc390fd3854c9b4bb66f2c010fb643230082e71a5e1f4
  FULL_DIGEST f6bbf5d505903ffb025de9d78b3f9007b2655da4aeee0e8feac64868ba008880)
strat_figure(swarm_stratification
  FLAGS "--peers 80 --burnin 8 --window 10"
  DIGEST bdb0f69e3c29b9c27067e0cc49d731fbee316339d39f8dda334bb83ac40ce7a7
  FULL_DIGEST 9ddc15c118bd28e7465c990cec2c09b3eacab5eab97348551eafe82dd7baafb9)
strat_figure(tab1_clustering THREADS
  FLAGS "--scale 0.1 --seeds 1"
  DIGEST e38a378c9a4db197b89943fc646240b7cea98a4e18011c28078dfffbfcd6cb17
  FULL_DIGEST b98d1cb03f8a2a9d56259efcb10d6772d8525ec20e0254f1dbf2c4ac3544f073)
