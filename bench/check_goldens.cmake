# Runs the model-free golden scenarios through `uvolt` in WORK_DIR and
# byte-compares each of the 16 CSVs they write with GOLDENS:
#   cmake -DUVOLT=<uvolt> -DGOLDENS=<dir> -DWORK_DIR=<dir> -P <this file>

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
    COMMAND ${UVOLT} fig01_guardband tab1_platforms fig03_voltage_sweep
        fig04_patterns tab2_stability fig05_clustering fig06_fvm_vc707
        fig07_fvm_die2die fig08_temperature fig10_power_breakdown
        ext_membackends
    WORKING_DIRECTORY ${WORK_DIR} OUTPUT_QUIET RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "uvolt exited with '${status}'")
endif()

file(GLOB written RELATIVE ${WORK_DIR}/results ${WORK_DIR}/results/*.csv)
list(LENGTH written count)
if(NOT count EQUAL 16)
    message(FATAL_ERROR "expected 16 CSVs, got ${count}: ${written}")
endif()
foreach(csv ${written})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/results/${csv} ${GOLDENS}/${csv} RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "results/${csv} differs from goldens/${csv}")
    endif()
endforeach()
